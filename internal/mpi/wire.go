package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Payload codec for the TCP transport. The channel transport moves
// payloads by reference; on the wire each payload is serialized into the
// data frame at send time — the copy-at-the-frame-boundary the transport
// contract requires — and reconstructed on the receiving side as exactly the
// type the sender passed, so Recv[T]'s type assertion behaves identically on
// both transports.
//
// The set of payloads is closed, and Elem names it: a message is a []T for
// one T of Elem — []complex128 pencil blocks, []float64 reductions, []byte
// barriers, []int/[]int64 tables, []string control messages — and each has a
// hand-coded little-endian kind below, so a payload the wire cannot frame is
// a compile error on both transports. Floating-point values travel as raw
// IEEE-754 bits, which is what makes a TCP trajectory bit-identical to a
// channel-transport one.

// Elem is the element type of every message: the exported generic
// operations take a []T with T in this set, the exact types only.
type Elem interface {
	byte | int | int64 | float64 | complex128 | string
}

// wireKind tags the encoding of a frame's payload.
type wireKind byte

const (
	wireBytes      wireKind = 1 + iota // []byte, raw
	wireFloat64                        // []float64, 8-byte LE bit patterns
	wireComplex128                     // []complex128, 16-byte LE bit pairs
	wireInt                            // []int, as int64 LE
	wireInt64                          // []int64, LE
	wireString                         // []string, u32 count then u32-len-prefixed
)

// payloadSize returns the bytes appendPayload writes for a payload of a bulk
// kind; for the others, small control messages that append may grow, a
// starting capacity.
func payloadSize(payload any) int {
	switch p := payload.(type) {
	case []byte:
		return len(p)
	case []float64:
		return 8 * len(p)
	case []complex128:
		return 16 * len(p)
	}
	return 64
}

// appendPayload serializes payload onto dst and returns the extended
// buffer plus the kind byte that was used. A payload outside the Elem
// slices cannot come from the generic operations; the one untyped entry,
// StreamSendPrepacked, panics here on one.
func appendPayload(dst []byte, payload any) ([]byte, wireKind) {
	switch p := payload.(type) {
	case []byte:
		return append(dst, p...), wireBytes
	case []float64:
		for _, v := range p {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst, wireFloat64
	case []complex128:
		for _, v := range p {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(v)))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(v)))
		}
		return dst, wireComplex128
	case []int:
		for _, v := range p {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(v)))
		}
		return dst, wireInt
	case []int64:
		for _, v := range p {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		return dst, wireInt64
	case []string:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
		for _, s := range p {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
		return dst, wireString
	default:
		panic(fmt.Sprintf("mpi: payload type %T is not a slice of an Elem type", payload))
	}
}

// decodeFloat64 and decodeComplex128 decode len(dst) elements from src; they
// are the bulk kinds' decoders, which readFrame runs window by window.
func decodeFloat64(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func decodeComplex128(dst []complex128, src []byte) {
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(src[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(src[16*i+8:]))
		dst[i] = complex(re, im)
	}
}

// decodePayload reconstructs a payload of one of the control kinds from its
// whole wire form (readFrame streams the two bulk kinds itself). data must
// not be retained: slices are copied out.
func decodePayload(kind wireKind, data []byte) (any, error) {
	switch kind {
	case wireBytes:
		return append(make([]byte, 0, len(data)), data...), nil
	case wireInt:
		if len(data)%8 != 0 {
			return nil, fmt.Errorf("mpi: int payload of %d bytes", len(data))
		}
		out := make([]int, len(data)/8)
		for i := range out {
			out[i] = int(int64(binary.LittleEndian.Uint64(data[i*8:])))
		}
		return out, nil
	case wireInt64:
		if len(data)%8 != 0 {
			return nil, fmt.Errorf("mpi: int64 payload of %d bytes", len(data))
		}
		out := make([]int64, len(data)/8)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}
		return out, nil
	case wireString:
		if len(data) < 4 {
			return nil, fmt.Errorf("mpi: string payload of %d bytes", len(data))
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if n > len(data)/4 { // every string has its own length prefix
			return nil, fmt.Errorf("mpi: truncated string payload")
		}
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			if len(data) < 4 {
				return nil, fmt.Errorf("mpi: truncated string payload")
			}
			l := int(binary.LittleEndian.Uint32(data))
			data = data[4:]
			if len(data) < l {
				return nil, fmt.Errorf("mpi: truncated string payload")
			}
			out = append(out, string(data[:l]))
			data = data[l:]
		}
		return out, nil
	default:
		return nil, fmt.Errorf("mpi: unknown wire kind %d", kind)
	}
}
