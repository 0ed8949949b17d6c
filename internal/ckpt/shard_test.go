package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"channeldns/internal/mpi"
)

// fill gives every (field, ikx, ikz, iy) sample a unique deterministic
// value so misplaced lines are detected, not just missing ones.
func sample(field, ikx, ikz, iy int) complex128 {
	return complex(float64(1+field)*1000+float64(ikx)*100+float64(ikz)*10+float64(iy),
		-float64(field)-float64(ikx*ikz*iy)/7)
}

// makeState builds a State for the window with nf fields and nm mean
// profiles, every value filled from sample: field f from sample(f, ...),
// mean profile m from sample(9, m, 0, iy).
func makeState(ny int, kxlo, kxhi, kzlo, kzhi, nf, nm int) *State {
	grid := &State{Nx: 16, Ny: ny, Nz: 6, NKx: 8, Fingerprint: 0xfeedbeefcafe0001}
	st := emptyLike(grid, kxlo, kxhi, kzlo, kzhi, nf, nm)
	st.Step, st.Time, st.Dt = 40, 1.25, 0.003
	nkz := kzhi - kzlo
	for f, field := range st.Fields {
		for w, line := range field {
			for iy := range line {
				line[iy] = sample(f, kxlo+w/nkz, kzlo+w%nkz, iy)
			}
		}
	}
	for m, p := range st.Means {
		for iy := range p {
			p[iy] = real(sample(9, m, 0, iy))
		}
	}
	return st
}

// emptyLike returns a zero-filled State of nf fields and nm mean profiles
// with src's grid and identity.
func emptyLike(src *State, kxlo, kxhi, kzlo, kzhi, nf, nm int) *State {
	st := &State{
		Nx: src.Nx, Ny: src.Ny, Nz: src.Nz, NKx: src.NKx,
		Kxlo: kxlo, Kxhi: kxhi, Kzlo: kzlo, Kzhi: kzhi,
		Fingerprint: src.Fingerprint,
	}
	for range nf {
		f := make([][]complex128, st.NW())
		for w := range f {
			f[w] = make([]complex128, st.Ny)
		}
		st.Fields = append(st.Fields, f)
	}
	for range nm {
		st.Means = append(st.Means, make([]float64, st.Ny))
	}
	return st
}

// meanIf returns n, the mean profile count of a state that owns the mean
// block, when own holds, else 0.
func meanIf(own bool, n int) int {
	if own {
		return n
	}
	return 0
}

// checkWindow verifies every sample of st's window matches the generator.
func checkWindow(t *testing.T, st *State) {
	t.Helper()
	nkz := st.Kzhi - st.Kzlo
	for f, field := range st.Fields {
		for w, line := range field {
			ikx := st.Kxlo + w/nkz
			ikz := st.Kzlo + w%nkz
			for iy, got := range line {
				if want := sample(f, ikx, ikz, iy); got != want {
					t.Fatalf("field %d mode (%d,%d) iy=%d: got %v, want %v", f, ikx, ikz, iy, got, want)
				}
			}
		}
	}
	for which, p := range st.Means {
		for iy, got := range p {
			if want := real(sample(9, which, 0, iy)); got != want {
				t.Fatalf("mean %d iy=%d: got %v, want %v", which, iy, got, want)
			}
		}
	}
}

// decodeImage runs a shard image through the reader the store uses: the
// header parse against the image's length, then the streaming decode and
// its CRC32C check into the state into returns for the header. A nil into,
// or an into that returns nil, decodes nothing and still checks the CRC.
func decodeImage(b []byte, into func(shardHeader) *State) (shardHeader, error) {
	sr, err := newShardReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return shardHeader{}, err
	}
	var dst *State
	if into != nil {
		dst = into(sr.h)
	}
	return sr.h, sr.decode(dst)
}

// roundTrip publishes src as a one-rank checkpoint and restores it into
// dst through the store's reader.
func roundTrip(t *testing.T, src, dst *State) (*Manifest, error) {
	t.Helper()
	s := NewStore(t.TempDir())
	var m *Manifest
	var err error
	mpi.Run(1, func(c *mpi.Comm) {
		var name string
		if name, err = s.Write(c, src); err != nil {
			return
		}
		if m, err = s.Verify(name); err != nil {
			return
		}
		err = s.Restore(c, name, dst)
	})
	return m, err
}

func TestShardRoundTrip(t *testing.T) {
	src := makeState(5, 0, 8, 0, 6, 4, 4)
	for i := range 3 * src.Ny {
		src.MaxAbs = append(src.MaxAbs, float64(i)/3)
	}
	src.MaxAbs[7] = math.NaN()
	dst := emptyLike(src, 0, 8, 0, 6, 4, 4)
	m, err := roundTrip(t, src, dst)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if n, want := m.Shards[0].Bytes, shardSize(src.NW(), src.Ny, 4, 4); n != want {
		t.Fatalf("encoded %d bytes, want %d", n, want)
	}
	if crc := m.Shards[0].CRC32C; crc == "00000000" {
		t.Fatal("CRC is zero (suspicious)")
	}
	checkWindow(t, dst)
	if dst.Step != src.Step || dst.Time != src.Time || dst.Dt != src.Dt {
		t.Fatalf("run position not restored: got step=%d t=%v dt=%v", dst.Step, dst.Time, dst.Dt)
	}
	if !slices.EqualFunc(dst.MaxAbs, src.MaxAbs, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("velocity maxima not restored bit for bit: got %v, want %v", dst.MaxAbs, src.MaxAbs)
	}
}

func TestShardEncodingIsDeterministic(t *testing.T) {
	src := makeState(5, 2, 6, 1, 4, 4, 0)
	var a, b bytes.Buffer
	if _, _, err := EncodeShard(&a, src); err != nil {
		t.Fatal(err)
	}
	if _, _, err := EncodeShard(&b, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same state differ")
	}
}

func TestShardDetectsCorruption(t *testing.T) {
	src := makeState(5, 0, 4, 0, 6, 4, 4)
	var buf bytes.Buffer
	if _, _, err := EncodeShard(&buf, src); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		errWant string
	}{
		{"bit flip in payload", func(b []byte) []byte {
			b[len(b)/2] ^= 1
			return b
		}, "CRC32C mismatch"},
		{"bit flip in header", func(b []byte) []byte {
			b[61] ^= 0x80 // time field: header stays parseable, CRC convicts
			return b
		}, "CRC32C mismatch"},
		{"truncated mid-payload", func(b []byte) []byte {
			return b[:len(b)-100]
		}, "bytes, header implies"},
		{"truncated inside header", func(b []byte) []byte {
			return b[:40]
		}, "truncated"},
		{"wrong magic", func(b []byte) []byte {
			copy(b, "NOTCKPT!")
			return b
		}, "bad shard magic"},
		{"future format version", func(b []byte) []byte {
			b[8] = 0xff
			return b
		}, "format version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			_, err := decodeImage(b, nil)
			if err == nil {
				t.Fatal("corrupt shard parsed without error")
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("error %q does not mention %q", err, tc.errWant)
			}
		})
	}
}

// TestDecodeShardRejectsMismatch restores a two-shard checkpoint into
// states that do not match it; the store's reader must refuse every one.
func TestDecodeShardRejectsMismatch(t *testing.T) {
	s := NewStore(t.TempDir())
	var name string
	mpi.Run(2, func(c *mpi.Comm) {
		lo, hi := chunk(8, 2, c.Rank())
		n, err := s.Write(c, makeState(5, lo, hi, 0, 6, 4, 0))
		if err != nil {
			t.Errorf("rank %d: write: %v", c.Rank(), err)
		}
		if c.Rank() == 0 {
			name = n
		}
	})
	src := makeState(5, 0, 4, 0, 6, 4, 0)
	restore := func(dst *State) error {
		var err error
		mpi.Run(1, func(c *mpi.Comm) { err = s.Restore(c, name, dst) })
		return err
	}
	cases := []struct {
		name   string
		mutate func(*State)
	}{
		{"fingerprint", func(st *State) { st.Fingerprint++ }},
		{"grid", func(st *State) { st.Nx = 32; st.NKx = 16 }},
		{"mean presence", func(st *State) { st.Means = emptyLike(st, 0, 0, 0, 0, 0, 4).Means }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := emptyLike(src, 0, 4, 0, 6, 4, 0)
			tc.mutate(dst)
			if err := restore(dst); err == nil {
				t.Fatal("mismatched decode succeeded")
			}
		})
	}
	t.Run("window", func(t *testing.T) {
		// The two shards' files trade places: each now holds a window its
		// manifest entry does not describe, behind a valid CRC.
		dir := filepath.Join(s.Dir(), name)
		a, b := filepath.Join(dir, shardFileName(0)), filepath.Join(dir, shardFileName(1))
		tmp := a + tmpSuffix
		for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
			if err := os.Rename(mv[0], mv[1]); err != nil {
				t.Fatal(err)
			}
		}
		dst := emptyLike(src, 0, 2, 0, 6, 4, 0)
		if err := restore(dst); err == nil {
			t.Fatal("window-mismatched decode succeeded (a shard must hold exactly its manifest entry's window)")
		}
	})
}

// TestCopyOverlapReShard splits a window into shards along one axis and
// reassembles them into windows split along the other axis — the core of
// the re-sharded resume path, the reader without the files.
func TestCopyOverlapReShard(t *testing.T) {
	// Source: 2 shards split in kx. Destination: 3 windows split in kz.
	shards := [][]byte{}
	for _, w := range [][4]int{{0, 4, 0, 6}, {4, 8, 0, 6}} {
		src := makeState(5, w[0], w[1], w[2], w[3], 4, meanIf(w[0] == 0, 4))
		var buf bytes.Buffer
		if _, _, err := EncodeShard(&buf, src); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, buf.Bytes())
	}
	full := makeState(5, 0, 8, 0, 6, 4, 4)
	for i, w := range [][4]int{{0, 8, 0, 2}, {0, 8, 2, 4}, {0, 8, 4, 6}} {
		dst := emptyLike(full, w[0], w[1], w[2], w[3], 4, meanIf(i == 0, 4))
		for _, sb := range shards {
			if _, err := decodeImage(sb, func(shardHeader) *State { return dst }); err != nil {
				t.Fatal(err)
			}
		}
		checkWindow(t, dst)
	}
}

func TestManifestValidate(t *testing.T) {
	mk := func() *Manifest {
		return &Manifest{
			Format: FormatVersion, Fingerprint: fingerprintString(1),
			Nx: 16, Ny: 5, Nz: 6, NKx: 8, Step: 10, Ranks: 2,
			Shards: []ShardInfo{
				{File: "shard-0000.ckpt", Kxlo: 0, Kxhi: 4, Kzlo: 0, Kzhi: 6, HasMean: true, Bytes: 1, CRC32C: "0"},
				{File: "shard-0001.ckpt", Kxlo: 4, Kxhi: 8, Kzlo: 0, Kzhi: 6, Bytes: 1, CRC32C: "0"},
			},
		}
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	// Zero mean shards is legal: workloads without mean profiles
	// (isotropic turbulence) write none.
	noMean := mk()
	noMean.Shards[0].HasMean = false
	if err := noMean.Validate(); err != nil {
		t.Fatalf("mean-free manifest rejected: %v", err)
	}
	maxima := mk()
	maxima.MaxAbs = make([]uint64, 3*maxima.Ny)
	if err := maxima.Validate(); err != nil {
		t.Fatalf("manifest with 3 x ny velocity maxima rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"future format", func(m *Manifest) { m.Format = 99 }},
		{"rank count mismatch", func(m *Manifest) { m.Ranks = 3 }},
		{"gap in coverage", func(m *Manifest) { m.Shards[1].Kxlo = 5 }},
		{"overlapping windows", func(m *Manifest) { m.Shards[1].Kxlo = 3 }},
		{"overlap hiding a gap", func(m *Manifest) { // 2x2: (0,0) twice, (1,1) never, areas sum to 4
			m.NKx, m.Nz = 2, 2
			m.Shards[0].Kxlo, m.Shards[0].Kxhi, m.Shards[0].Kzlo, m.Shards[0].Kzhi = 0, 2, 0, 1
			m.Shards[1].Kxlo, m.Shards[1].Kxhi, m.Shards[1].Kzlo, m.Shards[1].Kzhi = 0, 1, 0, 2
		}},
		{"wrapping mode count", func(m *Manifest) { // 2^62 x 4 wraps to 0, as does 2^62 x 2^62
			m.NKx, m.Nz, m.Ranks = 1<<62, 1<<62, 1
			m.Shards = m.Shards[:1]
			m.Shards[0].Kxlo, m.Shards[0].Kxhi, m.Shards[0].Kzlo, m.Shards[0].Kzhi = 0, 1<<62, 0, 4
		}},
		{"two mean shards", func(m *Manifest) { m.Shards[1].HasMean = true }},
		{"escaping file name", func(m *Manifest) { m.Shards[0].File = "../evil" }},
		{"window outside grid", func(m *Manifest) { m.Shards[1].Kxhi = 9 }},
		{"maxima of one component", func(m *Manifest) { m.MaxAbs = make([]uint64, m.Ny) }},
		{"maxima one short", func(m *Manifest) { m.MaxAbs = make([]uint64, 3*m.Ny-1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mk()
			tc.mutate(m)
			if err := m.Validate(); err == nil {
				t.Fatal("invalid manifest accepted")
			}
		})
	}
}

func TestShardSizeFormula(t *testing.T) {
	// Keep the documented layout honest: header + fields + mean + CRC,
	// with the 88-byte extended header only past four fields or means.
	for _, tc := range []struct {
		nw, ny, nFields, nMeans int
		want                    int64
	}{
		{1, 1, 4, 0, 80 + 4*16 + 4},
		{1, 1, 4, 4, 80 + 4*16 + 4*8 + 4},
		{6, 5, 4, 4, 80 + 4*6*5*16 + 4*5*8 + 4},
		{1, 1, 6, 0, 88 + 6*16 + 4},
		{6, 5, 6, 6, 88 + 6*6*5*16 + 6*5*8 + 4},
	} {
		if got := shardSize(tc.nw, tc.ny, tc.nFields, tc.nMeans); got != tc.want {
			t.Errorf("shardSize(%d,%d,%d,%d) = %d, want %d", tc.nw, tc.ny, tc.nFields, tc.nMeans, got, tc.want)
		}
	}
}

func TestCheckpointNameRoundTrip(t *testing.T) {
	for _, step := range []int64{0, 7, 123456789} {
		name := checkpointName(step)
		got, ok := stepOfName(name)
		if !ok || got != step {
			t.Errorf("stepOfName(%q) = %d,%v, want %d,true", name, got, ok, step)
		}
	}
	for _, bad := range []string{"foo", "step-", "step-xyz", "ckpt-12"} {
		if _, ok := stepOfName(bad); ok {
			t.Errorf("stepOfName(%q) accepted", bad)
		}
	}
	if name := checkpointName(40); name != fmt.Sprintf("step-%010d", 40) {
		t.Errorf("unexpected name %q", name)
	}
}

// TestShardBytesPinned holds the shard codec to the bytes it wrote before
// shards were streamed: the length and CRC32C of plain, mean-carrying and
// extended shards of fixed states, with the trailer holding that CRC32C. A
// change to field order, header layout or the trailer shows here before it
// reaches a store.
func TestShardBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *State
		n    int64
		crc  uint32
	}{
		{"plain", makeState(5, 2, 6, 1, 4, 4, 0), 3924, 0xb710c5a2},
		{"mean", makeState(5, 0, 8, 0, 6, 4, 4), 15604, 0xbc3bb707},
		{"extended", makeState(7, 1, 7, 1, 5, 6, 0), 16220, 0xabfcca40},
		{"extended-mean", makeState(7, 1, 7, 1, 5, 6, 6), 16556, 0xb60e8283},
	} {
		var buf bytes.Buffer
		n, crc, err := EncodeShard(&buf, tc.st)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b := buf.Bytes()
		if int64(len(b)) != n {
			t.Errorf("%s: EncodeShard reports %d bytes, wrote %d", tc.name, n, len(b))
		}
		if n != tc.n || crc != tc.crc {
			t.Errorf("%s: %d bytes, CRC32C %08x; pinned %d, %08x", tc.name, n, crc, tc.n, tc.crc)
		}
		if len(b) < 4 || binary.LittleEndian.Uint32(b[len(b)-4:]) != crc ||
			crc32.Checksum(b[:len(b)-4], castagnoli) != crc {
			t.Errorf("%s: trailer does not hold the CRC32C %08x of the bytes before it", tc.name, crc)
		}
	}
}
