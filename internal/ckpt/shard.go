package ckpt

import (
	"bufio"
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
//	80      -     payload: 4 complex fields (State.Fields in order), each
//	              nw mode lines of ny complex128 (re, im as f64), followed
//	              by the mean block when flagged: 4 real mean profiles
//	              (State.Means in order) of ny f64 each
//	end-4   4     CRC32C (Castagnoli) over every preceding byte
//
// When the extended flag (bit 1) is set — the shard carries more than four
// fields or mean profiles — the header grows by two counters and the
// payload shifts accordingly:
//
//	80      4     nExtra (u32): fields beyond the fourth
//	84      4     nExtraMean (u32): mean profiles beyond the fourth
//	88      -     payload as above, with 4+nExtra complex fields and, when
//	              the mean flag is set, 4+nExtraMean mean profiles
//
// A state with four fields and no or four mean profiles keeps the original
// v1 layout (the extended flag stays clear), so channel checkpoints written
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

// v1Lists is the field count, and the mean-profile count of a mean block,
// that the v1 header implies; the extended header counts the rest.
const v1Lists = 4

// extended reports whether a shard of nFields fields and nMeans mean
// profiles needs the extended header.
func extended(nFields, nMeans int) bool { return nFields > v1Lists || nMeans > v1Lists }

// window is the size of the one buffer a shard streams through, written or
// read: a shard never exists as a second image of the state in memory.
const window = 64 << 10

// shardSize returns the on-disk size of a shard with the given shape.
func shardSize(nw, ny, nFields, nMeans int) int64 {
	n := int64(headerSize)
	if extended(nFields, nMeans) {
		n = extHeaderSize
	}
	n += int64(nFields)*int64(nw)*int64(ny)*16 + int64(nMeans)*int64(ny)*8
	return n + 4 // CRC trailer
}

// shardWriter streams a shard through one window-sized chunk, folding each
// chunk into the CRC32C as it goes out. After the first write error it
// drops everything and keeps the error.
type shardWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	n   int64
	err error
}

// flush sends the chunk on and empties it.
func (sw *shardWriter) flush() {
	if len(sw.buf) > 0 && sw.err == nil {
		sw.crc = crc32.Update(sw.crc, castagnoli, sw.buf)
		var k int
		k, sw.err = sw.w.Write(sw.buf)
		sw.n += int64(k)
	}
	sw.buf = sw.buf[:0]
}

// room flushes the chunk unless it has size bytes free, and returns how
// many values of that size fit.
func (sw *shardWriter) room(size int) int {
	if cap(sw.buf)-len(sw.buf) < size {
		sw.flush()
	}
	return (cap(sw.buf) - len(sw.buf)) / size
}

func (sw *shardWriter) complexLine(line []complex128) {
	le := binary.LittleEndian
	for len(line) > 0 {
		k := min(len(line), sw.room(16))
		for _, c := range line[:k] {
			sw.buf = le.AppendUint64(sw.buf, math.Float64bits(real(c)))
			sw.buf = le.AppendUint64(sw.buf, math.Float64bits(imag(c)))
		}
		line = line[k:]
	}
}

func (sw *shardWriter) realLine(line []float64) {
	le := binary.LittleEndian
	for len(line) > 0 {
		k := min(len(line), sw.room(8))
		for _, v := range line[:k] {
			sw.buf = le.AppendUint64(sw.buf, math.Float64bits(v))
		}
		line = line[k:]
	}
}

// EncodeShard writes st as one shard and returns the byte count and the
// CRC32C recorded in the trailer. The encoding is deterministic: the same
// state always produces the same bytes. The shard goes out in window-sized
// chunks, so the writer holds one window, not the shard.
func EncodeShard(w io.Writer, st *State) (int64, uint32, error) {
	if err := st.validate(); err != nil {
		return 0, 0, err
	}
	nf, nm := len(st.Fields), len(st.Means)
	sw := &shardWriter{w: w, buf: make([]byte, 0, window)}
	le := binary.LittleEndian
	b := append(sw.buf, shardMagic...)
	b = le.AppendUint32(b, FormatVersion)
	b = le.AppendUint64(b, st.Fingerprint)
	for _, v := range []int{st.Nx, st.Ny, st.Nz, st.NKx, st.Kxlo, st.Kxhi, st.Kzlo, st.Kzhi} {
		b = le.AppendUint32(b, uint32(v))
	}
	b = le.AppendUint64(b, uint64(st.Step))
	b = le.AppendUint64(b, math.Float64bits(st.Time))
	b = le.AppendUint64(b, math.Float64bits(st.Dt))
	var flags uint32
	if nm > 0 {
		flags |= flagHasMean
	}
	ext := extended(nf, nm)
	if ext {
		flags |= flagExtended
	}
	b = le.AppendUint32(b, flags)
	if ext {
		b = le.AppendUint32(b, uint32(nf-v1Lists))
		b = le.AppendUint32(b, uint32(max(nm-v1Lists, 0)))
	}
	sw.buf = b

	for _, f := range st.Fields {
		for _, line := range f {
			sw.complexLine(line)
		}
	}
	for _, m := range st.Means {
		sw.realLine(m)
	}
	sw.flush()
	if sw.err != nil {
		return sw.n, sw.crc, sw.err
	}
	k, err := w.Write(le.AppendUint32(sw.buf, sw.crc))
	return sw.n + int64(k), sw.crc, err
}

// shardHeader is the decoded fixed header of a shard.
type shardHeader struct {
	Fingerprint            uint64
	Nx, Ny, Nz, NKx        int
	Kxlo, Kxhi, Kzlo, Kzhi int
	Step                   int64
	Time, Dt               float64
	NFields, NMeans        int // NMeans is 0 without the mean block
}

func (h *shardHeader) nw() int { return (h.Kxhi - h.Kxlo) * (h.Kzhi - h.Kzlo) }

// headerLen returns the on-disk header length this shard was written with.
func (h *shardHeader) headerLen() int64 {
	if extended(h.NFields, h.NMeans) {
		return extHeaderSize
	}
	return headerSize
}

// parseHeader validates magic, version and flags of a shard whose file
// holds size bytes, and holds the header's shape to that size. b carries
// the file's first min(extHeaderSize, size-4) bytes. The CRC32C is not
// checked here: the header's bytes are trusted only once the whole shard
// has streamed through it (shardReader.decode). Every corruption mode the
// drills produce (truncation, bit flip, garbage) lands here or there as an
// error.
func parseHeader(b []byte, size int64) (shardHeader, error) {
	var h shardHeader
	if size < headerSize+4 {
		return h, fmt.Errorf("ckpt: shard truncated to %d bytes (header is %d)", size, headerSize)
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
	hasMean, ext := flags&flagHasMean != 0, flags&flagExtended != 0
	nExtra, nExtraMean := 0, 0
	if ext {
		if size < extHeaderSize+4 {
			return h, fmt.Errorf("ckpt: extended shard truncated to %d bytes (header is %d)", size, extHeaderSize)
		}
		nExtra, nExtraMean = int(le.Uint32(b[80:])), int(le.Uint32(b[84:]))
		if nExtra > 1024 || nExtraMean > 1024 || (!hasMean && nExtraMean > 0) {
			return h, fmt.Errorf("ckpt: shard header claims %d extra fields, %d extra means (mean block %v)",
				nExtra, nExtraMean, hasMean)
		}
	}
	h.NFields = v1Lists + nExtra
	if hasMean {
		h.NMeans = v1Lists + nExtraMean
	}
	// Hold the header to what State.validate lets the writer emit, and to the
	// file's length one factor at a time: the extents arrive as uint32s, so a
	// window of 2^31 x 2^31 modes would otherwise wrap the size below to
	// whatever the file happens to measure and run the reader far past it.
	dkx, dkz, n := h.Kxhi-h.Kxlo, h.Kzhi-h.Kzlo, int(size)
	if h.Nx <= 0 || h.Ny <= 0 || h.Nz <= 0 || h.NKx <= 0 || dkx < 0 || h.Kxhi > h.NKx || dkz < 0 || h.Kzhi > h.Nz ||
		h.Ny > n || (dkz > 0 && dkx > n/dkz) || (h.nw() > 0 && h.Ny > n/h.nw()) {
		return h, fmt.Errorf("ckpt: shard header carries degenerate window kx[%d,%d) kz[%d,%d) of ny %d on a %dx%dx%d grid (nkx %d)",
			h.Kxlo, h.Kxhi, h.Kzlo, h.Kzhi, h.Ny, h.Nx, h.Ny, h.Nz, h.NKx)
	}
	if want := shardSize(h.nw(), h.Ny, h.NFields, h.NMeans); size != want || ext != extended(h.NFields, h.NMeans) {
		return h, fmt.Errorf("ckpt: shard is %d bytes, header implies %d", size, want)
	}
	return h, nil
}

// shardReader streams one shard of known size through a window-sized
// buffer, folding every byte before the trailer into the CRC32C as it is
// consumed.
type shardReader struct {
	ra   io.ReaderAt
	size int64
	br   *bufio.Reader
	crc  uint32
	h    shardHeader
}

// newShardReader reads and checks the header of the size-byte shard in ra.
func newShardReader(ra io.ReaderAt, size int64) (*shardReader, error) {
	body := max(size-4, 0) // every byte before the trailer
	sr := &shardReader{ra: ra, size: size, br: bufio.NewReaderSize(io.NewSectionReader(ra, 0, body), window)}
	b, err := sr.br.Peek(int(min(extHeaderSize, body)))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading shard header: %w", err)
	}
	if sr.h, err = parseHeader(b, size); err != nil {
		return nil, err
	}
	if _, err := sr.next(int(sr.h.headerLen())); err != nil {
		return nil, err
	}
	return sr, nil
}

// next consumes the next n <= window bytes through the CRC32C and returns
// them; they stay valid until the following call.
func (sr *shardReader) next(n int) ([]byte, error) {
	b, err := sr.br.Peek(n)
	if err != nil {
		return nil, fmt.Errorf("ckpt: shard ends early: %w", err)
	}
	sr.crc = crc32.Update(sr.crc, castagnoli, b)
	sr.br.Discard(n)
	return b, nil
}

// complexLine decodes the next len(dst) complex values into dst, or passes
// n of them through the CRC when dst is nil.
func (sr *shardReader) complexLine(dst []complex128, n int) error {
	le := binary.LittleEndian
	for i := 0; i < n; {
		k := min(n-i, window/16)
		b, err := sr.next(16 * k)
		if err != nil {
			return err
		}
		if dst != nil {
			for j := range dst[i : i+k] {
				dst[i+j] = complex(
					math.Float64frombits(le.Uint64(b[16*j:])),
					math.Float64frombits(le.Uint64(b[16*j+8:])))
			}
		}
		i += k
	}
	return nil
}

// realLine is complexLine for a real profile.
func (sr *shardReader) realLine(dst []float64, n int) error {
	le := binary.LittleEndian
	for i := 0; i < n; {
		k := min(n-i, window/8)
		b, err := sr.next(8 * k)
		if err != nil {
			return err
		}
		if dst != nil {
			for j := range dst[i : i+k] {
				dst[i+j] = math.Float64frombits(le.Uint64(b[8*j:]))
			}
		}
		i += k
	}
	return nil
}

// decode streams the shard's payload in file order and checks the trailer.
// Every mode line in the intersection of the shard's window and dst's (and
// the mean block when both sides carry it) is decoded straight into dst's
// slices; every other line only passes through the CRC32C, and a nil dst
// takes nothing. The caller has matched dst's Ny and list lengths to the
// header. A CRC mismatch is an error, and then dst holds bytes that were
// never trusted: a failed decode leaves dst's contents unspecified.
func (sr *shardReader) decode(dst *State) error {
	h := &sr.h
	for f := 0; f < h.NFields; f++ {
		for ikx := h.Kxlo; ikx < h.Kxhi; ikx++ {
			for ikz := h.Kzlo; ikz < h.Kzhi; ikz++ {
				var line []complex128
				if dst != nil && dst.Kxlo <= ikx && ikx < dst.Kxhi && dst.Kzlo <= ikz && ikz < dst.Kzhi {
					line = dst.Fields[f][(ikx-dst.Kxlo)*(dst.Kzhi-dst.Kzlo)+(ikz-dst.Kzlo)]
				}
				if err := sr.complexLine(line, h.Ny); err != nil {
					return err
				}
			}
		}
	}
	for m := 0; m < h.NMeans; m++ {
		var line []float64
		if dst != nil && len(dst.Means) > 0 {
			line = dst.Means[m]
		}
		if err := sr.realLine(line, h.Ny); err != nil {
			return err
		}
	}
	var t [4]byte
	if n, err := sr.ra.ReadAt(t[:], sr.size-4); n < len(t) {
		return fmt.Errorf("ckpt: reading shard trailer: %w", err)
	}
	if want := binary.LittleEndian.Uint32(t[:]); sr.crc != want {
		return fmt.Errorf("ckpt: shard CRC32C mismatch (stored %08x, computed %08x)", want, sr.crc)
	}
	return nil
}
