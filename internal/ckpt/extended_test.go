package ckpt

import (
	"bytes"
	"strings"
	"testing"

	"channeldns/internal/mpi"
)

// Tests of the extended shard layout (workload-specific extra fields) and
// the workload identity checks on the restore path.

// addExtras attaches nExtra complex fields and, on mean-carrying states,
// nExtraMean mean profiles, filled from the same sample generator with
// field ids continuing past the channel's four.
func addExtras(st *State, nExtra, nExtraMean int) {
	nkz := st.Kzhi - st.Kzlo
	for e := 0; e < nExtra; e++ {
		f := make([][]complex128, st.NW())
		for w := range f {
			ikx := st.Kxlo + w/nkz
			ikz := st.Kzlo + w%nkz
			line := make([]complex128, st.Ny)
			for iy := range line {
				line[iy] = sample(4+e, ikx, ikz, iy)
			}
			f[w] = line
		}
		st.Extra = append(st.Extra, f)
	}
	if st.HasMean {
		for e := 0; e < nExtraMean; e++ {
			p := make([]float64, st.Ny)
			for iy := range p {
				p[iy] = real(sample(9, 4+e, 0, iy))
			}
			st.ExtraMean = append(st.ExtraMean, p)
		}
	}
}

// emptyExtras attaches zero-filled extras of the same shape.
func emptyExtras(st *State, nExtra, nExtraMean int) {
	for e := 0; e < nExtra; e++ {
		f := make([][]complex128, st.NW())
		for w := range f {
			f[w] = make([]complex128, st.Ny)
		}
		st.Extra = append(st.Extra, f)
	}
	if st.HasMean {
		for e := 0; e < nExtraMean; e++ {
			st.ExtraMean = append(st.ExtraMean, make([]float64, st.Ny))
		}
	}
}

// checkExtras verifies every extra sample of st's window.
func checkExtras(t *testing.T, st *State) {
	t.Helper()
	nkz := st.Kzhi - st.Kzlo
	for e, field := range st.Extra {
		for w, line := range field {
			ikx := st.Kxlo + w/nkz
			ikz := st.Kzlo + w%nkz
			for iy, got := range line {
				if want := sample(4+e, ikx, ikz, iy); got != want {
					t.Fatalf("extra %d mode (%d,%d) iy=%d: got %v, want %v", e, ikx, ikz, iy, got, want)
				}
			}
		}
	}
	for e, p := range st.ExtraMean {
		for iy, got := range p {
			if want := real(sample(9, 4+e, 0, iy)); got != want {
				t.Fatalf("extra mean %d iy=%d: got %v, want %v", e, iy, got, want)
			}
		}
	}
}

func TestExtendedShardRoundTrip(t *testing.T) {
	src := makeState(5, 0, 8, 0, 6, true)
	addExtras(src, 2, 2)
	dst := emptyLike(src, 0, 8, 0, 6, true)
	emptyExtras(dst, 2, 2)
	m, err := roundTrip(t, src, dst)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if n, want := m.Shards[0].Bytes, shardSize(src.NW(), src.Ny, true, 2, 2); n != want {
		t.Fatalf("encoded %d bytes, want %d", n, want)
	}
	checkWindow(t, dst)
	checkExtras(t, dst)
	if dst.Step != src.Step || dst.Time != src.Time || dst.Dt != src.Dt {
		t.Fatalf("run position lost: step %d t %v dt %v", dst.Step, dst.Time, dst.Dt)
	}
}

func TestExtendedShardWithoutExtrasIsV1(t *testing.T) {
	// A state without extras must keep the original 80-byte header with
	// the extended flag clear, so pre-extension readers and writers agree
	// on channel checkpoints byte for byte.
	src := makeState(5, 0, 8, 0, 6, true)
	var buf bytes.Buffer
	if _, _, err := EncodeShard(&buf, src); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if b[76]&flagExtended != 0 {
		t.Fatal("extras-free shard carries the extended flag")
	}
	h, err := decodeImage(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Extended || h.NExtra != 0 || h.NExtraMean != 0 || h.headerLen() != headerSize {
		t.Fatalf("extras-free shard parsed as extended: %+v", h)
	}
}

func TestExtendedReshardCopyOverlap(t *testing.T) {
	// Shards written on a 2-way split restore onto the full window with
	// extras intact (the re-sharded resume path).
	var shards [][]byte
	for i, w := range [][4]int{{0, 4, 0, 6}, {4, 8, 0, 6}} {
		src := makeState(5, w[0], w[1], w[2], w[3], i == 0)
		addExtras(src, 2, 1)
		var buf bytes.Buffer
		if _, _, err := EncodeShard(&buf, src); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, buf.Bytes())
	}
	dst := emptyLike(makeState(5, 0, 8, 0, 6, true), 0, 8, 0, 6, true)
	emptyExtras(dst, 2, 1)
	for _, sb := range shards {
		if _, err := decodeImage(sb, func(shardHeader) *State { return dst }); err != nil {
			t.Fatal(err)
		}
	}
	checkWindow(t, dst)
	checkExtras(t, dst)
}

func TestDecodeShardExtraCountMismatch(t *testing.T) {
	src := makeState(5, 0, 8, 0, 6, true)
	addExtras(src, 2, 2)
	dst := emptyLike(src, 0, 8, 0, 6, true)
	emptyExtras(dst, 1, 1)
	_, err := roundTrip(t, src, dst)
	if err == nil || !strings.Contains(err.Error(), "extra") {
		t.Fatalf("extra-count mismatch accepted: %v", err)
	}
}

func TestStoreRejectsWorkloadMismatch(t *testing.T) {
	// A checkpoint written by one workload must not restore into another,
	// and the error must name both workloads — resuming a scalar run
	// against a channel store is a configuration error, not an empty
	// store.
	dir := t.TempDir()
	mpi.Run(1, func(c *mpi.Comm) {
		st := makeState(5, 0, 8, 0, 6, true)
		st.Workload = "channel"
		store := NewStore(dir)
		name, err := store.Write(c, st)
		if err != nil {
			t.Errorf("write: %v", err)
			return
		}

		other := emptyLike(st, 0, 8, 0, 6, true)
		other.Workload = "scalar"
		other.Fingerprint = st.Fingerprint + 1 // workload is part of the config hash
		emptyExtras(other, 2, 2)

		// Named restore: the workload line must lead the error.
		err = store.Restore(c, name, other)
		if err == nil {
			t.Error("cross-workload restore accepted")
			return
		}
		if !strings.Contains(err.Error(), `"channel"`) || !strings.Contains(err.Error(), `"scalar"`) {
			t.Errorf("restore error does not name both workloads: %v", err)
		}

		// Resume: a healthy checkpoint of the wrong workload is a loud
		// error, not ErrNoCheckpoint (which callers treat as start-fresh).
		_, err = store.Resume(c, other)
		if err == nil || err == ErrNoCheckpoint {
			t.Errorf("cross-workload resume: %v", err)
			return
		}
		if !strings.Contains(err.Error(), `"channel"`) || !strings.Contains(err.Error(), `"scalar"`) {
			t.Errorf("resume error does not name both workloads: %v", err)
		}

		// The same-workload state still resumes.
		back := emptyLike(st, 0, 8, 0, 6, true)
		back.Workload = "channel"
		if _, err := store.Resume(c, back); err != nil {
			t.Errorf("same-workload resume: %v", err)
		}
	})
}
