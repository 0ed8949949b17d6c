package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The shard binary layout (all little-endian):
//
//	offset  size  field
//	0       8     magic "CDNSCKPT"
//	8       4     format version (u32)
//	12      8     config fingerprint (u64)
//	20      4     nx (u32)        24  4  ny        28  4  nz
//	32      4     nkx (u32)
//	36      4     kxlo            40  4  kxhi      44  4  kzlo   48  4  kzhi
//	52      8     step (u64)
//	60      8     time (f64)      68  8  dt (f64)
//	76      4     flags (u32; bit 0 = mean block present, bit 1 = extended)
//	80      -     payload: 4 complex fields (cv, cw, hgPrev, hvPrev), each
//	              nw mode lines of ny complex128 (re, im as f64), followed
//	              by the mean block when flagged: 4 real profiles (meanU,
//	              meanW, meanHxPrev, meanHzPrev) of ny f64 each
//	end-4   4     CRC32C (Castagnoli) over every preceding byte
//
// When the extended flag (bit 1) is set — the shard carries workload-
// specific fields beyond the channel's four — the header grows by two
// counters and the payload shifts accordingly:
//
//	80      4     nExtra (u32): extra complex fields after hvPrev
//	84      4     nExtraMean (u32): extra mean profiles after meanHzPrev
//	88      -     payload as above, with 4+nExtra complex fields and, when
//	              the mean flag is set, 4+nExtraMean mean profiles
//
// A state without extras encodes byte-identically to the original v1
// layout (the extended flag stays clear), so channel checkpoints written
// before and after the extension are interchangeable.
//
// The header is self-describing: a reader can locate any (field, ikx, ikz)
// line from the header alone, which is what the re-sharded resume path
// relies on to read exactly the overlapping slices of a shard.

const (
	shardMagic    = "CDNSCKPT"
	headerSize    = 80
	extHeaderSize = 88
	flagHasMean   = 1 << 0
	flagExtended  = 1 << 1
)

// castagnoli is the CRC32C table (the polynomial storage hardware
// accelerates and iSCSI/ext4 use for integrity trailers).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// nComplexFields is the number of complex spectral fields in a shard, in
// on-disk order: cv, cw, hgPrev, hvPrev.
const nComplexFields = 4

// shardSize returns the on-disk size of a shard with the given shape.
func shardSize(nw, ny int, hasMean bool, nExtra, nExtraMean int) int64 {
	n := int64(headerSize)
	if nExtra > 0 || nExtraMean > 0 {
		n = extHeaderSize
	}
	n += int64(nComplexFields+nExtra) * int64(nw) * int64(ny) * 16
	if hasMean {
		n += int64(4+nExtraMean) * int64(ny) * 8
	}
	return n + 4 // CRC trailer
}

// EncodeShard writes st as one shard and returns the byte count and the
// CRC32C recorded in the trailer. The encoding is deterministic: the same
// state always produces the same bytes.
func EncodeShard(w io.Writer, st *State) (int64, uint32, error) {
	if err := st.validate(); err != nil {
		return 0, 0, err
	}
	nw, ny := st.NW(), st.Ny
	nExtra, nExtraMean := len(st.Extra), len(st.ExtraMean)
	b := make([]byte, shardSize(nw, ny, st.HasMean, nExtra, nExtraMean))
	copy(b[0:8], shardMagic)
	le := binary.LittleEndian
	le.PutUint32(b[8:], FormatVersion)
	le.PutUint64(b[12:], st.Fingerprint)
	le.PutUint32(b[20:], uint32(st.Nx))
	le.PutUint32(b[24:], uint32(st.Ny))
	le.PutUint32(b[28:], uint32(st.Nz))
	le.PutUint32(b[32:], uint32(st.NKx))
	le.PutUint32(b[36:], uint32(st.Kxlo))
	le.PutUint32(b[40:], uint32(st.Kxhi))
	le.PutUint32(b[44:], uint32(st.Kzlo))
	le.PutUint32(b[48:], uint32(st.Kzhi))
	le.PutUint64(b[52:], uint64(st.Step))
	le.PutUint64(b[60:], math.Float64bits(st.Time))
	le.PutUint64(b[68:], math.Float64bits(st.Dt))
	var flags uint32
	if st.HasMean {
		flags |= flagHasMean
	}
	off := int64(headerSize)
	if nExtra > 0 || nExtraMean > 0 {
		flags |= flagExtended
		le.PutUint32(b[80:], uint32(nExtra))
		le.PutUint32(b[84:], uint32(nExtraMean))
		off = extHeaderSize
	}
	le.PutUint32(b[76:], flags)

	for _, f := range append([][][]complex128{st.CV, st.CW, st.HgPrev, st.HvPrev}, st.Extra...) {
		for _, line := range f {
			putComplexLine(b[off:], line)
			off += int64(ny) * 16
		}
	}
	if st.HasMean {
		for _, m := range append([][]float64{st.MeanU, st.MeanW, st.MeanHxPrev, st.MeanHzPrev}, st.ExtraMean...) {
			putRealLine(b[off:], m)
			off += int64(ny) * 8
		}
	}
	crc := crc32.Checksum(b[:off], castagnoli)
	le.PutUint32(b[off:], crc)
	n, err := w.Write(b)
	return int64(n), crc, err
}

func putComplexLine(b []byte, line []complex128) {
	le := binary.LittleEndian
	for i, c := range line {
		le.PutUint64(b[i*16:], math.Float64bits(real(c)))
		le.PutUint64(b[i*16+8:], math.Float64bits(imag(c)))
	}
}

func putRealLine(b []byte, line []float64) {
	le := binary.LittleEndian
	for i, v := range line {
		le.PutUint64(b[i*8:], math.Float64bits(v))
	}
}

func getComplexLine(b []byte, dst []complex128) {
	le := binary.LittleEndian
	for i := range dst {
		dst[i] = complex(
			math.Float64frombits(le.Uint64(b[i*16:])),
			math.Float64frombits(le.Uint64(b[i*16+8:])))
	}
}

func getRealLine(b []byte, dst []float64) {
	le := binary.LittleEndian
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(b[i*8:]))
	}
}

// shardHeader is the decoded fixed header of a shard.
type shardHeader struct {
	Fingerprint            uint64
	Nx, Ny, Nz, NKx        int
	Kxlo, Kxhi, Kzlo, Kzhi int
	Step                   int64
	Time, Dt               float64
	HasMean                bool
	Extended               bool
	NExtra, NExtraMean     int
}

func (h *shardHeader) nw() int { return (h.Kxhi - h.Kxlo) * (h.Kzhi - h.Kzlo) }

// headerLen returns the on-disk header length this shard was written with.
func (h *shardHeader) headerLen() int64 {
	if h.Extended {
		return extHeaderSize
	}
	return headerSize
}

// parseShard validates magic, version, size and the CRC32C trailer of a
// complete in-memory shard image and returns its header. Every corruption
// mode the drills produce (truncation, bit flip, garbage) lands here as an
// error.
func parseShard(b []byte) (shardHeader, error) {
	var h shardHeader
	if len(b) < headerSize+4 {
		return h, fmt.Errorf("ckpt: shard truncated to %d bytes (header is %d)", len(b), headerSize)
	}
	if string(b[0:8]) != shardMagic {
		return h, fmt.Errorf("ckpt: bad shard magic %q", b[0:8])
	}
	le := binary.LittleEndian
	if v := le.Uint32(b[8:]); v != FormatVersion {
		return h, fmt.Errorf("ckpt: shard format version %d, reader supports %d", v, FormatVersion)
	}
	h.Fingerprint = le.Uint64(b[12:])
	h.Nx = int(le.Uint32(b[20:]))
	h.Ny = int(le.Uint32(b[24:]))
	h.Nz = int(le.Uint32(b[28:]))
	h.NKx = int(le.Uint32(b[32:]))
	h.Kxlo = int(le.Uint32(b[36:]))
	h.Kxhi = int(le.Uint32(b[40:]))
	h.Kzlo = int(le.Uint32(b[44:]))
	h.Kzhi = int(le.Uint32(b[48:]))
	h.Step = int64(le.Uint64(b[52:]))
	h.Time = math.Float64frombits(le.Uint64(b[60:]))
	h.Dt = math.Float64frombits(le.Uint64(b[68:]))
	flags := le.Uint32(b[76:])
	if flags&^(flagHasMean|flagExtended) != 0 {
		return h, fmt.Errorf("ckpt: shard flags %#x carry bits this reader does not know", flags)
	}
	h.HasMean = flags&flagHasMean != 0
	h.Extended = flags&flagExtended != 0
	if h.Extended {
		if len(b) < extHeaderSize+4 {
			return h, fmt.Errorf("ckpt: extended shard truncated to %d bytes (header is %d)", len(b), extHeaderSize)
		}
		h.NExtra = int(le.Uint32(b[80:]))
		h.NExtraMean = int(le.Uint32(b[84:]))
		if h.NExtra > 1024 || h.NExtraMean > 1024 {
			return h, fmt.Errorf("ckpt: shard header claims %d extra fields, %d extra means", h.NExtra, h.NExtraMean)
		}
	}
	// Hold the header to what State.validate lets the writer emit, and to the
	// image's own length one factor at a time: the extents arrive as uint32s,
	// so a window of 2^31 x 2^31 modes would otherwise wrap the size below to
	// whatever the image happens to measure and index far outside it later.
	dkx, dkz, n := h.Kxhi-h.Kxlo, h.Kzhi-h.Kzlo, len(b)
	if h.Nx <= 0 || h.Ny <= 0 || h.Nz <= 0 || h.NKx <= 0 || dkx < 0 || h.Kxhi > h.NKx || dkz < 0 || h.Kzhi > h.Nz ||
		h.Ny > n || (dkz > 0 && dkx > n/dkz) || (h.nw() > 0 && h.Ny > n/h.nw()) || (!h.HasMean && h.NExtraMean > 0) {
		return h, fmt.Errorf("ckpt: shard header carries degenerate window kx[%d,%d) kz[%d,%d) of ny %d on a %dx%dx%d grid (nkx %d)",
			h.Kxlo, h.Kxhi, h.Kzlo, h.Kzhi, h.Ny, h.Nx, h.Ny, h.Nz, h.NKx)
	}
	if want := shardSize(h.nw(), h.Ny, h.HasMean, h.NExtra, h.NExtraMean); int64(len(b)) != want || h.Extended != (h.NExtra > 0 || h.NExtraMean > 0) {
		return h, fmt.Errorf("ckpt: shard is %d bytes, header implies %d", len(b), want)
	}
	if got, want := crc32.Checksum(b[:len(b)-4], castagnoli), le.Uint32(b[len(b)-4:]); got != want {
		return h, fmt.Errorf("ckpt: shard CRC32C mismatch (stored %08x, computed %08x)", want, got)
	}
	return h, nil
}

// copyOverlap copies every mode line in the intersection of the shard's
// window and dst's window (and the mean block when both sides carry it)
// from the verified shard image into dst's slices. Returns the number of
// mode lines copied per field.
func copyOverlap(b []byte, h shardHeader, dst *State) int {
	kxlo := max(h.Kxlo, dst.Kxlo)
	kxhi := min(h.Kxhi, dst.Kxhi)
	kzlo := max(h.Kzlo, dst.Kzlo)
	kzhi := min(h.Kzhi, dst.Kzhi)
	ny := h.Ny
	srcNkz := h.Kzhi - h.Kzlo
	dstNkz := dst.Kzhi - dst.Kzlo
	fields := append([][][]complex128{dst.CV, dst.CW, dst.HgPrev, dst.HvPrev}, dst.Extra...)
	lines := 0
	for f := range fields {
		fieldOff := h.headerLen() + int64(f)*int64(h.nw())*int64(ny)*16
		for ikx := kxlo; ikx < kxhi; ikx++ {
			for ikz := kzlo; ikz < kzhi; ikz++ {
				srcW := (ikx-h.Kxlo)*srcNkz + (ikz - h.Kzlo)
				dstW := (ikx-dst.Kxlo)*dstNkz + (ikz - dst.Kzlo)
				off := fieldOff + int64(srcW)*int64(ny)*16
				getComplexLine(b[off:], fields[f][dstW])
				if f == 0 {
					lines++
				}
			}
		}
	}
	if h.HasMean && dst.HasMean {
		off := h.headerLen() + int64(nComplexFields+h.NExtra)*int64(h.nw())*int64(ny)*16
		for _, m := range append([][]float64{dst.MeanU, dst.MeanW, dst.MeanHxPrev, dst.MeanHzPrev}, dst.ExtraMean...) {
			getRealLine(b[off:], m)
			off += int64(ny) * 8
		}
	}
	return lines
}

// DecodeShard reads one complete shard from r and restores it into dst,
// whose window, grid and fingerprint must match the shard exactly (the
// single-rank save/load path; re-sharded restores go through Store). The
// decoded values are copied into dst's existing slices.
func DecodeShard(r io.Reader, dst *State) error {
	if err := dst.validate(); err != nil {
		return err
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("ckpt: reading shard: %w", err)
	}
	h, err := parseShard(b)
	if err != nil {
		return err
	}
	if h.Fingerprint != dst.Fingerprint {
		return fmt.Errorf("ckpt: shard fingerprint %016x does not match configuration %016x",
			h.Fingerprint, dst.Fingerprint)
	}
	if h.Nx != dst.Nx || h.Ny != dst.Ny || h.Nz != dst.Nz || h.NKx != dst.NKx {
		return fmt.Errorf("ckpt: shard grid %dx%dx%d does not match solver %dx%dx%d",
			h.Nx, h.Ny, h.Nz, dst.Nx, dst.Ny, dst.Nz)
	}
	if h.Kxlo != dst.Kxlo || h.Kxhi != dst.Kxhi || h.Kzlo != dst.Kzlo || h.Kzhi != dst.Kzhi {
		return fmt.Errorf("ckpt: shard window kx[%d,%d) kz[%d,%d) does not match rank window kx[%d,%d) kz[%d,%d)",
			h.Kxlo, h.Kxhi, h.Kzlo, h.Kzhi, dst.Kxlo, dst.Kxhi, dst.Kzlo, dst.Kzhi)
	}
	if h.HasMean != dst.HasMean {
		return fmt.Errorf("ckpt: shard mean-profile presence (%v) does not match rank (%v)",
			h.HasMean, dst.HasMean)
	}
	if h.NExtra != len(dst.Extra) || (dst.HasMean && h.NExtraMean != len(dst.ExtraMean)) {
		return fmt.Errorf("ckpt: shard carries %d extra fields / %d extra means, solver expects %d / %d",
			h.NExtra, h.NExtraMean, len(dst.Extra), len(dst.ExtraMean))
	}
	copyOverlap(b, h, dst)
	dst.Step, dst.Time, dst.Dt = h.Step, h.Time, h.Dt
	return nil
}
