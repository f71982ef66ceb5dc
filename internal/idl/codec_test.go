package idl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

type testResolver struct{ fail bool }

func (r testResolver) ResolveObjRef(iid string, id uint64) (InterfacePtr, error) {
	return fakePtr{iid, id}, nil
}

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	e := NewEncoder()
	if err := e.Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	d := NewDecoder(e.Bytes(), testResolver{})
	got, err := d.Decode(v.Type)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("trailing bytes: %d", d.Remaining())
	}
	return got
}

func TestCodecScalars(t *testing.T) {
	t.Parallel()
	cases := []Value{
		Bool(true), Bool(false),
		Int32(-123456), Int32(0),
		Int64(1<<50 + 17), Int64(-9),
		Float64(3.14159), Float64(-0.0),
		String(""), String("héllo wörld"),
		ByteBuf(nil), ByteBuf([]byte{0, 1, 2, 255}),
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if got.Int != v.Int || got.Float != v.Float || got.Str != v.Str {
			t.Errorf("round trip of %v: got %v", v, got)
		}
		if v.Type.Kind == KindBytes && len(v.Bytes) > 0 && !reflect.DeepEqual(got.Bytes, v.Bytes) {
			t.Errorf("bytes round trip: got %v want %v", got.Bytes, v.Bytes)
		}
	}
}

func TestCodecAggregates(t *testing.T) {
	t.Parallel()
	pt := Struct("Point", Field("x", TInt32), Field("y", TFloat64))
	v := StructVal(pt, Int32(3), Float64(4.5))
	got := roundTrip(t, v)
	if got.Elems[0].Int != 3 || got.Elems[1].Float != 4.5 {
		t.Errorf("struct round trip: %+v", got)
	}

	arr := ArrayVal(Array(TString), String("a"), String("bb"), String(""))
	got = roundTrip(t, arr)
	if len(got.Elems) != 3 || got.Elems[1].Str != "bb" {
		t.Errorf("array round trip: %+v", got)
	}
}

func TestCodecInterfacePointer(t *testing.T) {
	t.Parallel()
	v := IfacePtr(fakePtr{"IDocReader", 42})
	got := roundTrip(t, v)
	if got.Iface == nil || got.Iface.IID() != "IDocReader" || got.Iface.InstanceID() != 42 {
		t.Errorf("objref round trip: %+v", got.Iface)
	}
	// Null pointer.
	got = roundTrip(t, IfacePtr(nil))
	if got.Iface != nil {
		t.Errorf("null objref round trip: %+v", got.Iface)
	}
}

func TestCodecNullObjRefNeedsNoResolver(t *testing.T) {
	t.Parallel()
	e := NewEncoder()
	if err := e.Encode(IfacePtr(nil)); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes(), nil)
	if _, err := d.Decode(InterfaceType("")); err != nil {
		t.Fatalf("null objref should decode without resolver: %v", err)
	}
}

func TestCodecObjRefWithoutResolverFails(t *testing.T) {
	t.Parallel()
	e := NewEncoder()
	if err := e.Encode(IfacePtr(fakePtr{"I", 1})); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes(), nil)
	if _, err := d.Decode(InterfaceType("I")); err == nil {
		t.Fatal("expected resolver error")
	}
}

func TestCodecOpaqueRejected(t *testing.T) {
	t.Parallel()
	e := NewEncoder()
	if err := e.Encode(OpaquePtr("shm")); err == nil {
		t.Fatal("opaque pointer encoded")
	}
	d := NewDecoder(nil, nil)
	if _, err := d.Decode(TOpaque); err == nil {
		t.Fatal("opaque pointer decoded")
	}
}

func TestCodecTruncation(t *testing.T) {
	t.Parallel()
	e := NewEncoder()
	if err := e.Encode(String("hello")); err != nil {
		t.Fatal(err)
	}
	buf := e.Bytes()
	for cut := 0; cut < len(buf); cut++ {
		d := NewDecoder(buf[:cut], nil)
		if _, err := d.Decode(TString); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(buf))
		}
	}
}

func TestCodecAbsurdArrayCountRejected(t *testing.T) {
	t.Parallel()
	e := NewEncoder()
	e.u32(1 << 30) // claimed count far exceeding stream
	d := NewDecoder(e.Bytes(), nil)
	if _, err := d.Decode(Array(TInt32)); err == nil {
		t.Fatal("absurd array count accepted")
	}
}

func TestEncodeParamsArityChecked(t *testing.T) {
	t.Parallel()
	if _, err := EncodeParams([]*TypeDesc{TInt32}, nil); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestDecodeParamsTrailingBytesRejected(t *testing.T) {
	t.Parallel()
	buf, err := EncodeParams([]*TypeDesc{TInt32, TInt32}, []Value{Int32(1), Int32(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeParams(buf, []*TypeDesc{TInt32}, nil); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	vals, err := DecodeParams(buf, []*TypeDesc{TInt32, TInt32}, nil)
	if err != nil || vals[0].Int != 1 || vals[1].Int != 2 {
		t.Fatalf("param round trip: %v %v", vals, err)
	}
}

func TestCodecUntypedValueRejected(t *testing.T) {
	t.Parallel()
	e := NewEncoder()
	if err := e.Encode(Value{}); err == nil {
		t.Fatal("untyped value encoded")
	}
}

func TestCodecStructArityMismatch(t *testing.T) {
	t.Parallel()
	pt := Struct("P", Field("x", TInt32), Field("y", TInt32))
	e := NewEncoder()
	if err := e.Encode(Value{Type: pt, Elems: []Value{Int32(1)}}); err == nil {
		t.Fatal("struct arity mismatch encoded")
	}
}

// equalValue compares decoded and original values structurally (interface
// pointers compare by iid+id).
func equalValue(a, b Value) bool {
	if a.Type.Kind != b.Type.Kind {
		return false
	}
	switch a.Type.Kind {
	case KindBool, KindInt32, KindInt64:
		return a.Int == b.Int
	case KindFloat64:
		return a.Float == b.Float || (a.Float != a.Float && b.Float != b.Float)
	case KindString:
		return a.Str == b.Str
	case KindBytes:
		if len(a.Bytes) != len(b.Bytes) {
			return false
		}
		for i := range a.Bytes {
			if a.Bytes[i] != b.Bytes[i] {
				return false
			}
		}
		return true
	case KindInterface:
		if (a.Iface == nil) != (b.Iface == nil) {
			return false
		}
		return a.Iface == nil ||
			(a.Iface.IID() == b.Iface.IID() && a.Iface.InstanceID() == b.Iface.InstanceID())
	case KindStruct, KindArray:
		if len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !equalValue(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	}
	return true
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := genValue(rr, 3)
		e := NewEncoder()
		if err := e.Encode(v); err != nil {
			return false
		}
		d := NewDecoder(e.Bytes(), testResolver{})
		got, err := d.Decode(v.Type)
		if err != nil {
			return false
		}
		return d.Remaining() == 0 && equalValue(v, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
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
