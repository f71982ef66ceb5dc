package idl

// Constructors and accessors that only the tests use.

// Void is the void value.
func Void() Value { return Value{Type: TVoid} }

// Bool constructs a boolean value.
func Bool(b bool) Value {
	v := Value{Type: TBool}
	if b {
		v.Int = 1
	}
	return v
}

// Int64 constructs a 64-bit integer value.
func Int64(n int64) Value { return Value{Type: TInt64, Int: n} }

// ArrayVal constructs an array value.
func ArrayVal(t *TypeDesc, elems ...Value) Value {
	return Value{Type: t, Elems: elems}
}

// IsVoid reports whether v is the void value.
func (v Value) IsVoid() bool { return v.Type == nil || v.Type.Kind == KindVoid }

// AsBool returns the boolean payload.
func (v Value) AsBool() bool { return v.Int != 0 }

// AsFloat returns the float payload.
func (v Value) AsFloat() float64 { return v.Float }

// Array constructs a conformant-array type descriptor.
func Array(elem *TypeDesc) *TypeDesc {
	return &TypeDesc{Kind: KindArray, Elem: elem}
}
