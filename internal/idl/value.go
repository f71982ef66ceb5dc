package idl

import (
	"errors"
	"fmt"
)

// InterfacePtr is the view this package has of a component interface
// pointer. The component model's interface handles implement it. Marshaling
// an interface pointer transmits a standard object reference, not the
// object, mirroring DCOM OBJREF semantics.
type InterfacePtr interface {
	// IID returns the interface id of the referenced interface.
	IID() string
	// InstanceID returns the process-unique id of the owning instance.
	InstanceID() uint64
}

// Value is a typed wire value. Exactly one payload field is meaningful,
// selected by Type.Kind. The zero Value is the void value.
type Value struct {
	Type   *TypeDesc
	Int    int64        // KindBool (0/1), KindInt32, KindInt64
	Float  float64      // KindFloat64
	Str    string       // KindString
	Bytes  []byte       // KindBytes
	Elems  []Value      // KindStruct (fields in order), KindArray
	Iface  InterfacePtr // KindInterface (may be nil)
	Opaque any          // KindOpaque
}

// Int32 constructs a 32-bit integer value.
func Int32(n int32) Value { return Value{Type: TInt32, Int: int64(n)} }

// Float64 constructs a double value.
func Float64(f float64) Value { return Value{Type: TFloat64, Float: f} }

// String constructs a string value.
func String(s string) Value { return Value{Type: TString, Str: s} }

// ByteBuf constructs a byte-buffer value.
func ByteBuf(b []byte) Value { return Value{Type: TBytes, Bytes: b} }

// zeroPage backs Zeros. It is a package-level array, so it lives in static
// data and costs no heap.
var zeroPage [256 << 10]byte

// Zeros constructs an n-byte buffer of zeros without allocating: a
// simulated payload whose length is all the runtime measures. The slice
// aliases a shared page, so holders must never write into it; its capacity
// is n, so an append copies rather than writing into the page. Sizes past
// the page fall back to a fresh allocation.
func Zeros(n int) Value {
	if n > len(zeroPage) {
		return ByteBuf(make([]byte, n))
	}
	return ByteBuf(zeroPage[:n:n])
}

// StructVal constructs a struct value; fields must be given in descriptor
// order.
func StructVal(t *TypeDesc, fields ...Value) Value {
	return Value{Type: t, Elems: fields}
}

// anyInterface types every IfacePtr value. A pointer carries its own IID,
// so the descriptor names none ("any") and one shared descriptor serves
// every value; declared parameter types keep their IIDs.
var anyInterface = InterfaceType("")

// IfacePtr constructs an interface-pointer value.
func IfacePtr(p InterfacePtr) Value { return Value{Type: anyInterface, Iface: p} }

// OpaquePtr constructs an opaque-pointer value carrying p. Such values are
// non-remotable by construction.
func OpaquePtr(p any) Value { return Value{Type: TOpaque, Opaque: p} }

// AsInt returns the integer payload.
func (v Value) AsInt() int64 { return v.Int }

// AsString returns the string payload.
func (v Value) AsString() string { return v.Str }

// Validate checks that the value's payload matches its type descriptor,
// recursively. com.Env uses it to reject malformed calls.
func (v Value) Validate() error {
	if v.Type == nil {
		return errors.New("idl: value has nil type")
	}
	switch v.Type.Kind {
	case KindVoid, KindBool, KindInt32, KindInt64, KindFloat64, KindString,
		KindBytes, KindOpaque:
		return nil
	case KindInterface:
		if v.Iface != nil && v.Type.IID != "" && v.Iface.IID() != v.Type.IID {
			return fmt.Errorf("idl: interface pointer has IID %s, want %s",
				v.Iface.IID(), v.Type.IID)
		}
		return nil
	case KindStruct:
		if len(v.Elems) != len(v.Type.Fields) {
			return fmt.Errorf("idl: struct %s has %d fields, value has %d",
				v.Type.Name, len(v.Type.Fields), len(v.Elems))
		}
		for i, f := range v.Type.Fields {
			if v.Elems[i].Type == nil {
				return fmt.Errorf("idl: struct %s field %s is untyped", v.Type.Name, f.Name)
			}
			if v.Elems[i].Type.Kind != f.Type.Kind {
				return fmt.Errorf("idl: struct %s field %s has kind %v, want %v",
					v.Type.Name, f.Name, v.Elems[i].Type.Kind, f.Type.Kind)
			}
			if err := v.Elems[i].Validate(); err != nil {
				return err
			}
		}
		return nil
	case KindArray:
		for i := range v.Elems {
			if v.Elems[i].Type == nil || v.Elems[i].Type.Kind != v.Type.Elem.Kind {
				return fmt.Errorf("idl: array element %d has wrong kind", i)
			}
			if err := v.Elems[i].Validate(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("idl: unknown kind %v", v.Type.Kind)
	}
}

// objRefSize is the marshaled size of a standard object reference: a COM
// OBJREF with a STDOBJREF body plus resolver address, ~68 bytes on the wire.
const objRefSize = 68

// DeepSize returns the number of bytes DCOM would transfer to deep-copy v
// to another machine, following NDR alignment conventions approximately:
// scalars at natural size (bool as 4 bytes), strings and buffers with a
// 4-byte conformance prefix, interface pointers as object references, and
// aggregates as the sum of their parts. Opaque pointers marshal as a 4-byte
// pointer representation that is meaningless remotely — interfaces passing
// them must be declared non-remotable.
func (v Value) DeepSize() int {
	if v.Type == nil {
		return 0
	}
	switch v.Type.Kind {
	case KindVoid:
		return 0
	case KindBool, KindInt32, KindOpaque:
		return 4
	case KindInt64, KindFloat64:
		return 8
	case KindString:
		return 4 + len(v.Str)
	case KindBytes:
		return 4 + len(v.Bytes)
	case KindInterface:
		if v.Iface == nil {
			return 4 // null pointer marker
		}
		return objRefSize
	case KindStruct:
		n := 0
		for i := range v.Elems {
			n += v.Elems[i].DeepSize()
		}
		return n
	case KindArray:
		n := 4 // conformance count
		for i := range v.Elems {
			n += v.Elems[i].DeepSize()
		}
		return n
	default:
		return 0
	}
}

// Walk visits v and every nested value in marshal order, invoking fn for
// each; RemotableValues checks call parameters with it. Walking stops
// early if fn returns false.
func (v *Value) Walk(fn func(*Value) bool) bool {
	if !fn(v) {
		return false
	}
	switch {
	case v.Type == nil:
		return true
	case v.Type.Kind == KindStruct || v.Type.Kind == KindArray:
		for i := range v.Elems {
			if !v.Elems[i].Walk(fn) {
				return false
			}
		}
	}
	return true
}

// SizeOf returns the total deep-copy size of a parameter list.
func SizeOf(vals []Value) int {
	n := 0
	for i := range vals {
		n += vals[i].DeepSize()
	}
	return n
}

// RemotableValues reports whether every value in the list can be marshaled
// across a machine boundary. Both the payload tree and the declared type
// tree are checked: a KindOpaque nested inside an aggregate is caught even
// when the aggregate's payload is empty (an empty conformant array of
// opaque elements is still non-remotable — its type admits no marshaling).
func RemotableValues(vals []Value) bool {
	ok := true
	for i := range vals {
		vals[i].Walk(func(v *Value) bool {
			if v.Type != nil && !v.Type.Remotable() {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			return false
		}
	}
	return true
}
