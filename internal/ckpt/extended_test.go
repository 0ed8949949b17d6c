package ckpt

import (
	"bytes"
	"strings"
	"testing"

	"channeldns/internal/mpi"
)

// Tests of the extended shard layout (more than four fields or mean
// profiles) and the workload identity checks on the restore path.

func TestExtendedShardRoundTrip(t *testing.T) {
	src := makeState(5, 0, 8, 0, 6, 6, 6)
	dst := emptyLike(src, 0, 8, 0, 6, 6, 6)
	m, err := roundTrip(t, src, dst)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if n, want := m.Shards[0].Bytes, shardSize(src.NW(), src.Ny, 6, 6); n != want {
		t.Fatalf("encoded %d bytes, want %d", n, want)
	}
	checkWindow(t, dst)
	if dst.Step != src.Step || dst.Time != src.Time || dst.Dt != src.Dt {
		t.Fatalf("run position lost: step %d t %v dt %v", dst.Step, dst.Time, dst.Dt)
	}
}

func TestExtendedShardWithoutExtrasIsV1(t *testing.T) {
	// A state of four fields and four means must keep the original 80-byte
	// header with the extended flag clear, so pre-extension readers and
	// writers agree on channel checkpoints byte for byte.
	src := makeState(5, 0, 8, 0, 6, 4, 4)
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
	if h.NFields != 4 || h.NMeans != 4 || h.headerLen() != headerSize {
		t.Fatalf("extras-free shard parsed as extended: %+v", h)
	}
}

func TestExtendedReshardCopyOverlap(t *testing.T) {
	// Shards written on a 2-way split restore onto the full window with
	// extras intact (the re-sharded resume path).
	var shards [][]byte
	for i, w := range [][4]int{{0, 4, 0, 6}, {4, 8, 0, 6}} {
		src := makeState(5, w[0], w[1], w[2], w[3], 6, meanIf(i == 0, 5))
		var buf bytes.Buffer
		if _, _, err := EncodeShard(&buf, src); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, buf.Bytes())
	}
	dst := emptyLike(makeState(5, 0, 8, 0, 6, 6, 5), 0, 8, 0, 6, 6, 5)
	for _, sb := range shards {
		if _, err := decodeImage(sb, func(shardHeader) *State { return dst }); err != nil {
			t.Fatal(err)
		}
	}
	checkWindow(t, dst)
}

func TestDecodeShardExtraCountMismatch(t *testing.T) {
	src := makeState(5, 0, 8, 0, 6, 6, 6)
	dst := emptyLike(src, 0, 8, 0, 6, 5, 5)
	_, err := roundTrip(t, src, dst)
	if err == nil || !strings.Contains(err.Error(), "fields") {
		t.Fatalf("field-count mismatch accepted: %v", err)
	}
}

func TestStoreRejectsWorkloadMismatch(t *testing.T) {
	// A checkpoint written by one workload must not restore into another,
	// and the error must name both workloads — resuming a scalar run
	// against a channel store is a configuration error, not an empty
	// store.
	dir := t.TempDir()
	mpi.Run(1, func(c *mpi.Comm) {
		st := makeState(5, 0, 8, 0, 6, 4, 4)
		st.Workload = "channel"
		store := NewStore(dir)
		name, err := store.Write(c, st)
		if err != nil {
			t.Errorf("write: %v", err)
			return
		}

		other := emptyLike(st, 0, 8, 0, 6, 6, 6)
		other.Workload = "scalar"
		other.Fingerprint = st.Fingerprint + 1 // workload is part of the config hash

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
		back := emptyLike(st, 0, 8, 0, 6, 4, 4)
		back.Workload = "channel"
		if _, err := store.Resume(c, back); err != nil {
			t.Errorf("same-workload resume: %v", err)
		}
	})
}
