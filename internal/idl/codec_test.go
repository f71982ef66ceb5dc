package idl

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The encoder below is an NDR-like little-endian wire encoding: interface
// pointers marshal as (iid, instance id) object references, and opaque
// pointers cannot be encoded. It is the reference the runtime's deep-copy
// size is held to: for a value with no interface pointer, DeepSize is the
// length the wire would carry.

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

func TestPropertyEncodedLenMatchesDeepSizeForPointerFreeValues(t *testing.T) {
	t.Parallel()
	// For values with no interface pointers, the encoded length equals the
	// deep-copy size: the runtime's measurement is exactly what the wire
	// would carry.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := genValue(rr, 3)
		e := NewEncoder()
		if err := e.Encode(v); err != nil {
			return false
		}
		return len(e.Bytes()) == v.DeepSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
