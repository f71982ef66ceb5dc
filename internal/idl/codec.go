package idl

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The wire codec implements an NDR-like little-endian encoding used by the
// loopback-TCP transport and the network profiler. Interface pointers
// marshal as (iid, instance id) object references; the unmarshaling side
// resolves them through a Resolver. Opaque pointers cannot be encoded.

// Resolver turns a marshaled object reference back into a live interface
// pointer on the receiving side. The distributed runtime provides one that
// creates proxies for remote instances.
type Resolver interface {
	ResolveObjRef(iid string, instanceID uint64) (InterfacePtr, error)
}

// Encoder appends wire bytes for values.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with an empty buffer.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the accumulated wire bytes.
func (e *Encoder) Bytes() []byte { return e.buf }

func (e *Encoder) u32(n uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, n)
}

func (e *Encoder) u64(n uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, n)
}

func (e *Encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Encode appends the wire form of v. Opaque values are rejected: they are
// the non-remotable case the paper's black interface edges represent.
func (e *Encoder) Encode(v Value) error {
	if v.Type == nil {
		return fmt.Errorf("idl: encode of untyped value")
	}
	switch v.Type.Kind {
	case KindVoid:
		return nil
	case KindBool, KindInt32:
		e.u32(uint32(int32(v.Int)))
		return nil
	case KindInt64:
		e.u64(uint64(v.Int))
		return nil
	case KindFloat64:
		e.u64(math.Float64bits(v.Float))
		return nil
	case KindString:
		e.str(v.Str)
		return nil
	case KindBytes:
		e.u32(uint32(len(v.Bytes)))
		e.buf = append(e.buf, v.Bytes...)
		return nil
	case KindInterface:
		if v.Iface == nil {
			e.u32(0) // null object reference
			return nil
		}
		e.u32(1)
		e.str(v.Iface.IID())
		e.u64(v.Iface.InstanceID())
		return nil
	case KindStruct:
		if len(v.Elems) != len(v.Type.Fields) {
			return fmt.Errorf("idl: struct %s arity mismatch", v.Type.Name)
		}
		for i := range v.Elems {
			if err := e.Encode(v.Elems[i]); err != nil {
				return err
			}
		}
		return nil
	case KindArray:
		e.u32(uint32(len(v.Elems)))
		for i := range v.Elems {
			if err := e.Encode(v.Elems[i]); err != nil {
				return err
			}
		}
		return nil
	case KindOpaque:
		return fmt.Errorf("idl: cannot marshal opaque pointer across machines")
	default:
		return fmt.Errorf("idl: encode of unknown kind %v", v.Type.Kind)
	}
}

// EncodeParams encodes a parameter list against its descriptors.
func EncodeParams(types []*TypeDesc, vals []Value) ([]byte, error) {
	if len(types) != len(vals) {
		return nil, fmt.Errorf("idl: %d values for %d parameters", len(vals), len(types))
	}
	e := NewEncoder()
	for i := range vals {
		if err := e.Encode(vals[i]); err != nil {
			return nil, err
		}
	}
	return e.Bytes(), nil
}

// Decoder consumes wire bytes, reconstructing values type-directed.
type Decoder struct {
	buf      []byte
	off      int
	resolver Resolver
}

// NewDecoder returns a decoder over buf. resolver may be nil if the stream
// is known to contain no non-null interface pointers.
func NewDecoder(buf []byte, resolver Resolver) *Decoder {
	return &Decoder{buf: buf, resolver: resolver}
}

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) u32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, fmt.Errorf("idl: truncated stream at offset %d", d.off)
	}
	n := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return n, nil
}

func (d *Decoder) u64() (uint64, error) {
	if d.off+8 > len(d.buf) {
		return 0, fmt.Errorf("idl: truncated stream at offset %d", d.off)
	}
	n := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return n, nil
}

func (d *Decoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if d.off+int(n) > len(d.buf) {
		return "", fmt.Errorf("idl: truncated string at offset %d", d.off)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Decode reads one value of type t.
func (d *Decoder) Decode(t *TypeDesc) (Value, error) {
	switch t.Kind {
	case KindVoid:
		return Value{Type: TVoid}, nil
	case KindBool, KindInt32:
		n, err := d.u32()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: t, Int: int64(int32(n))}, nil
	case KindInt64:
		n, err := d.u64()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: t, Int: int64(n)}, nil
	case KindFloat64:
		n, err := d.u64()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: t, Float: math.Float64frombits(n)}, nil
	case KindString:
		s, err := d.str()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: t, Str: s}, nil
	case KindBytes:
		n, err := d.u32()
		if err != nil {
			return Value{}, err
		}
		if d.off+int(n) > len(d.buf) {
			return Value{}, fmt.Errorf("idl: truncated buffer at offset %d", d.off)
		}
		b := make([]byte, n)
		copy(b, d.buf[d.off:])
		d.off += int(n)
		return Value{Type: t, Bytes: b}, nil
	case KindInterface:
		marker, err := d.u32()
		if err != nil {
			return Value{}, err
		}
		if marker == 0 {
			return Value{Type: t}, nil
		}
		iid, err := d.str()
		if err != nil {
			return Value{}, err
		}
		id, err := d.u64()
		if err != nil {
			return Value{}, err
		}
		if d.resolver == nil {
			return Value{}, fmt.Errorf("idl: object reference to %s but no resolver", iid)
		}
		p, err := d.resolver.ResolveObjRef(iid, id)
		if err != nil {
			return Value{}, err
		}
		return Value{Type: t, Iface: p}, nil
	case KindStruct:
		v := Value{Type: t, Elems: make([]Value, len(t.Fields))}
		for i, f := range t.Fields {
			fv, err := d.Decode(f.Type)
			if err != nil {
				return Value{}, err
			}
			v.Elems[i] = fv
		}
		return v, nil
	case KindArray:
		n, err := d.u32()
		if err != nil {
			return Value{}, err
		}
		// Reject absurd conformance counts before allocating: every element
		// occupies at least minWireSize bytes. Elements that can occupy zero
		// bytes (empty structs) are capped to keep a hostile count bounded.
		if min := minWireSize(t.Elem); min > 0 {
			if int64(n)*int64(min) > int64(d.Remaining()) {
				return Value{}, fmt.Errorf("idl: array count %d exceeds remaining %d bytes", n, d.Remaining())
			}
		} else if n > maxZeroSizeElems {
			return Value{}, fmt.Errorf("idl: array count %d of zero-size elements exceeds cap", n)
		}
		v := Value{Type: t, Elems: make([]Value, n)}
		for i := 0; i < int(n); i++ {
			ev, err := d.Decode(t.Elem)
			if err != nil {
				return Value{}, err
			}
			v.Elems[i] = ev
		}
		return v, nil
	case KindOpaque:
		return Value{}, fmt.Errorf("idl: cannot unmarshal opaque pointer")
	default:
		return Value{}, fmt.Errorf("idl: decode of unknown kind %v", t.Kind)
	}
}

// maxZeroSizeElems bounds conformance counts for element types that may
// occupy zero wire bytes, where the byte-budget guard cannot apply.
const maxZeroSizeElems = 1 << 20

// minWireSize returns the minimum number of bytes one value of type t
// occupies on the wire.
func minWireSize(t *TypeDesc) int {
	switch t.Kind {
	case KindBool, KindInt32, KindString, KindBytes, KindInterface, KindOpaque:
		return 4
	case KindInt64, KindFloat64:
		return 8
	case KindStruct:
		n := 0
		for _, f := range t.Fields {
			n += minWireSize(f.Type)
		}
		return n
	case KindArray:
		return 4
	default: // KindVoid
		return 0
	}
}

// DecodeParams decodes a parameter list against its descriptors.
func DecodeParams(buf []byte, types []*TypeDesc, resolver Resolver) ([]Value, error) {
	d := NewDecoder(buf, resolver)
	vals := make([]Value, len(types))
	for i, t := range types {
		v, err := d.Decode(t)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("idl: %d trailing bytes after parameters", d.Remaining())
	}
	return vals, nil
}
