package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"testing"
)

// withCRC returns a copy of the image with its trailer recomputed, so a
// mutated header is judged on its fields instead of bouncing off the CRC.
func withCRC(b []byte) []byte {
	b = bytes.Clone(b)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
	return b
}

// reencode checks one shard image: the store's reader must not panic on
// it, and an image it accepts must describe a state the writer could have
// written — decoding the image into a state of the header's shape and
// encoding that gives the same bytes back.
func reencode(t *testing.T, b []byte) {
	var st *State
	h, err := decodeImage(b, func(h shardHeader) *State {
		grid := &State{Nx: h.Nx, Ny: h.Ny, Nz: h.Nz, NKx: h.NKx, Fingerprint: h.Fingerprint}
		st = emptyLike(grid, h.Kxlo, h.Kxhi, h.Kzlo, h.Kzhi, h.NFields, h.NMeans)
		st.Step, st.Time, st.Dt = h.Step, h.Time, h.Dt
		return st
	})
	if err != nil {
		return
	}
	var out bytes.Buffer
	if _, _, err := EncodeShard(&out, st); err != nil {
		t.Fatalf("accepted image does not re-encode: %v (header %+v)", err, h)
	}
	if !bytes.Equal(out.Bytes(), b) {
		t.Fatalf("accepted image re-encodes to different bytes (header %+v)", h)
	}
}

// FuzzParseShard feeds the store's shard reader (header parse, streaming
// decode, CRC32C check) whatever bytes a shard file might hold, through an
// io.ReaderAt over them. Each input is also tried with its CRC trailer
// recomputed, which is what lets the fuzzer reach the decode of accepted
// headers and the checks behind the CRC gate.
func FuzzParseShard(f *testing.F) {
	image := func(st *State) []byte {
		var buf bytes.Buffer
		if _, _, err := EncodeShard(&buf, st); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := image(makeState(5, 1, 3, 0, 2, 4, 4))
	extended := image(makeState(5, 0, 2, 2, 5, 6, 5))
	for _, b := range [][]byte{plain, extended} {
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(b[:headerSize+4])
		f.Add(b[:headerSize+3])
		f.Add(b[:20])
	}
	f.Add([]byte{})
	// Header-field mutations behind a valid CRC: each uint32 field in turn
	// set to values that wrap or overflow the size arithmetic.
	le := binary.LittleEndian
	for off := 20; off <= 48; off += 4 {
		for _, v := range []uint32{0, 1, 1 << 31, 1<<32 - 1} {
			m := bytes.Clone(plain)
			le.PutUint32(m[off:], v)
			f.Add(withCRC(m))
		}
	}
	for _, flags := range []uint32{0, flagExtended, flagHasMean | flagExtended, 1 << 2, 1<<32 - 1} {
		m := bytes.Clone(plain)
		le.PutUint32(m[76:], flags)
		f.Add(withCRC(m))
	}
	// An 84-byte image whose 2^31 x 2^31 window times ny = 1 wraps the
	// implied size to exactly 84 bytes.
	wrap := bytes.Clone(plain[:headerSize+4])
	for off, v := range map[int]uint32{20: 4, 24: 1, 28: 4, 32: 4, 36: 0, 40: 1 << 31, 44: 0, 48: 1 << 31, 76: 0} {
		le.PutUint32(wrap[off:], v)
	}
	f.Add(withCRC(wrap))
	// The extended counters at their cap and past it.
	for _, n := range []uint32{1024, 1025, 1<<32 - 1} {
		m := bytes.Clone(extended)
		le.PutUint32(m[80:], n)
		f.Add(withCRC(m))
		m = bytes.Clone(extended)
		le.PutUint32(m[84:], n)
		f.Add(withCRC(m))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		reencode(t, b)
		if len(b) >= headerSize+4 {
			reencode(t, withCRC(b))
		}
	})
}

// tilesOnce fails unless the manifest's windows cover every (kx, kz) mode of
// its grid exactly once. It counts on the grid cut at every window edge, so
// each cell stands for all its modes and any grid size is cheap.
func tilesOnce(t *testing.T, m *Manifest) {
	xs, zs := []int{0, m.NKx}, []int{0, m.Nz}
	for _, sh := range m.Shards {
		xs = append(xs, sh.Kxlo, sh.Kxhi)
		zs = append(zs, sh.Kzlo, sh.Kzhi)
	}
	slices.Sort(xs)
	slices.Sort(zs)
	xs, zs = slices.Compact(xs), slices.Compact(zs)
	for _, kx := range xs[:len(xs)-1] {
		for _, kz := range zs[:len(zs)-1] {
			n := 0
			for _, sh := range m.Shards {
				if sh.Kxlo <= kx && kx < sh.Kxhi && sh.Kzlo <= kz && kz < sh.Kzhi {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("accepted manifest covers mode (%d, %d) %d times: %+v", kx, kz, n, m)
			}
		}
	}
}

// FuzzReadManifest feeds parseManifest whatever bytes a MANIFEST.json might
// hold: no panic, and a manifest it accepts covers every mode exactly once.
func FuzzReadManifest(f *testing.F) {
	shard := func(kxlo, kxhi, kzlo, kzhi int) ShardInfo {
		return ShardInfo{File: "shard.ckpt", Kxlo: kxlo, Kxhi: kxhi, Kzlo: kzlo, Kzhi: kzhi, Bytes: 1, CRC32C: "0"}
	}
	for _, m := range []Manifest{
		{NKx: 8, Nz: 6, Shards: []ShardInfo{shard(0, 4, 0, 6), shard(4, 8, 0, 6)}},
		{NKx: 8, Nz: 6, Shards: []ShardInfo{shard(0, 8, 0, 3), shard(0, 0, 0, 0), shard(0, 8, 3, 6)}},
		// Both accepted before windows had to be disjoint and the mode count
		// bounded: one mode twice and one never, and a count that wraps.
		{NKx: 2, Nz: 2, Shards: []ShardInfo{shard(0, 2, 0, 1), shard(0, 1, 0, 2)}},
		{NKx: 1 << 62, Nz: 1 << 62, Shards: []ShardInfo{shard(0, 1<<62, 0, 4)}},
		// Velocity maxima, a NaN among them, for ny = 5.
		{NKx: 8, Nz: 6, Shards: []ShardInfo{shard(0, 8, 0, 6)},
			MaxAbs: []uint64{0, 1, math.Float64bits(math.NaN()), 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 1 << 63}},
	} {
		m.Format, m.Fingerprint, m.Nx, m.Ny, m.Ranks = FormatVersion, fingerprintString(1), 16, 5, len(m.Shards)
		b, err := encodeManifest(&m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":`))
	f.Fuzz(func(t *testing.T, b []byte) {
		if m, err := parseManifest(b); err == nil {
			tilesOnce(t, m)
		}
	})
}
