package mpi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync"
)

// Payload codec for the TCP transport. The channel transport moves
// payloads by reference, so the concrete slice types callers send never
// mattered; on the wire each payload is serialized into the data frame at
// send time — the copy-at-the-frame-boundary the transport contract
// requires — and reconstructed on the receiving side as exactly the type
// the sender passed, so Recv[T]'s type assertion behaves identically on
// both transports.
//
// The hot types of the simulation ([]complex128 pencil wire traffic,
// []float64 reductions, []byte barriers, []int/[]int64 tables, []string
// control messages, the split tuples) are hand-coded little-endian fast
// paths; anything else rides a gob fallback that packages opt into with
// RegisterWire (internal/ckpt registers its shard metadata this way).
// Floating-point values travel as raw IEEE-754 bits, which is what makes
// a TCP trajectory bit-identical to a channel-transport one.

// wireKind tags the encoding of a frame's payload.
type wireKind byte

const (
	wireBytes      wireKind = 1 + iota // []byte, raw
	wireFloat64                        // []float64, 8-byte LE bit patterns
	wireComplex128                     // []complex128, 16-byte LE bit pairs
	wireInt                            // []int, as int64 LE
	wireInt64                          // []int64, LE
	wireString                         // []string, u32 count then u32-len-prefixed
	wireSplit                          // []splitTuple, 3 x int64 LE each
	wireGob                            // registered type: u16 name len, name, gob stream
)

// wireCodec is one registered gob-fallback type.
type wireCodec struct {
	enc func(payload any) ([]byte, error)
	dec func(data []byte) (any, error)
}

var (
	wireMu  sync.RWMutex
	wireReg = map[string]wireCodec{}
)

// RegisterWire makes []T transportable over the wire via gob. The
// registry key is the payload's fmt %T name, so registration is once per
// concrete element type, in an init function of the package that owns T.
// Types whose fields gob cannot encode (unexported fields) need a
// hand-coded kind instead. Hot-path types should not go through here:
// gob re-describes the type per message.
func RegisterWire[T any]() {
	var z []T
	name := fmt.Sprintf("%T", z)
	wireMu.Lock()
	defer wireMu.Unlock()
	wireReg[name] = wireCodec{
		enc: func(payload any) ([]byte, error) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(payload.([]T)); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		},
		dec: func(data []byte) (any, error) {
			var v []T
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
}

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
// buffer plus the kind byte that was used. It panics on types no codec
// covers: that is a programming error (a new message type was introduced
// without teaching the wire about it), not a runtime condition.
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
	case []splitTuple:
		for _, t := range p {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(t.Color)))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(t.Key)))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(t.Rank)))
		}
		return dst, wireSplit
	default:
		name := fmt.Sprintf("%T", payload)
		wireMu.RLock()
		codec, ok := wireReg[name]
		wireMu.RUnlock()
		if !ok {
			panic(fmt.Sprintf("mpi: no wire codec for payload type %s (add a fast path in wire.go or call mpi.RegisterWire)", name))
		}
		enc, err := codec.enc(payload)
		if err != nil {
			panic(fmt.Sprintf("mpi: wire-encoding %s: %v", name, err))
		}
		if len(name) > 0xffff {
			panic("mpi: wire type name too long")
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
		dst = append(dst, name...)
		return append(dst, enc...), wireGob
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
	case wireSplit:
		if len(data)%24 != 0 {
			return nil, fmt.Errorf("mpi: splitTuple payload of %d bytes", len(data))
		}
		out := make([]splitTuple, len(data)/24)
		for i := range out {
			out[i] = splitTuple{
				Color: int(int64(binary.LittleEndian.Uint64(data[i*24:]))),
				Key:   int(int64(binary.LittleEndian.Uint64(data[i*24+8:]))),
				Rank:  int(int64(binary.LittleEndian.Uint64(data[i*24+16:]))),
			}
		}
		return out, nil
	case wireGob:
		if len(data) < 2 {
			return nil, fmt.Errorf("mpi: truncated gob payload")
		}
		nl := int(binary.LittleEndian.Uint16(data))
		if len(data) < 2+nl {
			return nil, fmt.Errorf("mpi: truncated gob type name")
		}
		name := string(data[2 : 2+nl])
		wireMu.RLock()
		codec, ok := wireReg[name]
		wireMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("mpi: received wire type %s with no local RegisterWire", name)
		}
		return codec.dec(data[2+nl:])
	default:
		return nil, fmt.Errorf("mpi: unknown wire kind %d", kind)
	}
}
