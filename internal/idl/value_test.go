package idl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// fakePtr implements InterfacePtr for tests.
type fakePtr struct {
	iid string
	id  uint64
}

func (p fakePtr) IID() string        { return p.iid }
func (p fakePtr) InstanceID() uint64 { return p.id }

func TestScalarConstructorsAndAccessors(t *testing.T) {
	t.Parallel()
	if v := Bool(true); !v.AsBool() || v.Type.Kind != KindBool {
		t.Error("Bool(true) broken")
	}
	if v := Bool(false); v.AsBool() {
		t.Error("Bool(false) broken")
	}
	if v := Int32(-7); v.AsInt() != -7 {
		t.Error("Int32 broken")
	}
	if v := Int64(1 << 40); v.AsInt() != 1<<40 {
		t.Error("Int64 broken")
	}
	if v := Float64(2.5); v.AsFloat() != 2.5 {
		t.Error("Float64 broken")
	}
	if v := String("hi"); v.AsString() != "hi" {
		t.Error("String broken")
	}
	if !Void().IsVoid() || Int32(1).IsVoid() {
		t.Error("IsVoid broken")
	}
	if (Value{}).IsVoid() != true {
		t.Error("zero value should be void")
	}
}

func TestDeepSizeScalars(t *testing.T) {
	t.Parallel()
	cases := []struct {
		v    Value
		want int
	}{
		{Void(), 0},
		{Bool(true), 4},
		{Int32(0), 4},
		{Int64(0), 8},
		{Float64(0), 8},
		{String("abc"), 7},
		{ByteBuf(make([]byte, 100)), 104},
		{OpaquePtr(nil), 4},
		{IfacePtr(nil), 4},
		{IfacePtr(fakePtr{"IFoo", 3}), 68},
	}
	for i, c := range cases {
		if got := c.v.DeepSize(); got != c.want {
			t.Errorf("case %d: DeepSize = %d, want %d", i, got, c.want)
		}
	}
}

func TestDeepSizeAggregates(t *testing.T) {
	t.Parallel()
	pt := Struct("Point", Field("x", TInt32), Field("y", TInt32))
	v := StructVal(pt, Int32(1), Int32(2))
	if got := v.DeepSize(); got != 8 {
		t.Errorf("struct size = %d, want 8", got)
	}
	arr := ArrayVal(Array(pt), v, v, v)
	if got := arr.DeepSize(); got != 4+3*8 {
		t.Errorf("array size = %d, want 28", got)
	}
	// Deep copy: nesting multiplies.
	outer := StructVal(Struct("Wrap", Field("pts", Array(pt)), Field("name", TString)),
		arr, String("xy"))
	if got := outer.DeepSize(); got != 28+6 {
		t.Errorf("nested size = %d, want 34", got)
	}
}

func TestValidate(t *testing.T) {
	t.Parallel()
	pt := Struct("Point", Field("x", TInt32), Field("y", TInt32))
	good := StructVal(pt, Int32(1), Int32(2))
	if err := good.Validate(); err != nil {
		t.Errorf("valid struct rejected: %v", err)
	}
	bad := StructVal(pt, Int32(1)) // arity
	if err := bad.Validate(); err == nil {
		t.Error("arity mismatch accepted")
	}
	badKind := StructVal(pt, Int32(1), String("y")) // kind
	if err := badKind.Validate(); err == nil {
		t.Error("kind mismatch accepted")
	}
	if err := (Value{}).Validate(); err == nil {
		t.Error("untyped value accepted")
	}
	arr := ArrayVal(Array(TInt32), Int32(1), String("no"))
	if err := arr.Validate(); err == nil {
		t.Error("heterogeneous array accepted")
	}
	ifv := Value{Type: InterfaceType("IWant"), Iface: fakePtr{"IOther", 1}}
	if err := ifv.Validate(); err == nil {
		t.Error("IID mismatch accepted")
	}
	okIf := Value{Type: InterfaceType("IWant"), Iface: fakePtr{"IWant", 1}}
	if err := okIf.Validate(); err != nil {
		t.Errorf("matching IID rejected: %v", err)
	}
	// IfacePtr values share one "any interface" descriptor: they carry
	// their IID in the pointer, and validate whatever it is.
	a, b := IfacePtr(fakePtr{"IA", 1}), IfacePtr(fakePtr{"IB", 2})
	if a.Type != b.Type || a.Type.Kind != KindInterface || a.Type.IID != "" {
		t.Errorf("IfacePtr types %+v, %+v: want one shared any-interface descriptor", a.Type, b.Type)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("IfacePtr value rejected: %v", err)
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	t.Parallel()
	pt := Struct("P", Field("a", TInt32), Field("b", TString))
	v := ArrayVal(Array(pt),
		StructVal(pt, Int32(1), String("x")),
		StructVal(pt, Int32(2), String("y")))
	count := 0
	v.Walk(func(*Value) bool { count++; return true })
	// 1 array + 2 structs + 4 scalars
	if count != 7 {
		t.Errorf("walk visited %d nodes, want 7", count)
	}
	// Early stop.
	count = 0
	v.Walk(func(*Value) bool { count++; return count < 3 })
	if count != 3 {
		t.Errorf("early-stop walk visited %d nodes, want 3", count)
	}
}

func TestSizeOfAndRemotableValues(t *testing.T) {
	t.Parallel()
	vals := []Value{Int32(1), String("abcd")}
	if got := SizeOf(vals); got != 4+8 {
		t.Errorf("SizeOf = %d, want 12", got)
	}
	if !RemotableValues(vals) {
		t.Error("plain values reported non-remotable")
	}
	withPtr := []Value{Int32(1), StructVal(Struct("S", Field("p", TOpaque)), OpaquePtr("mem"))}
	if RemotableValues(withPtr) {
		t.Error("opaque pointer reported remotable")
	}
}

func TestRemotableValuesNestedOpaqueTypes(t *testing.T) {
	t.Parallel()
	// The opaque pointer may hide in the type tree without appearing in the
	// payload tree: an empty conformant array of opaque elements, or an
	// opaque-field struct whose payload was left empty. Both are still
	// unmarshalable.
	emptyOpaqueArray := []Value{ArrayVal(Array(TOpaque))}
	if RemotableValues(emptyOpaqueArray) {
		t.Error("empty array of opaque elements reported remotable")
	}
	emptyOpaqueStruct := []Value{StructVal(Struct("S", Field("p", TOpaque)))}
	if RemotableValues(emptyOpaqueStruct) {
		t.Error("empty struct with an opaque field reported remotable")
	}
	deep := []Value{ArrayVal(Array(Struct("Inner", Field("hs", Array(TOpaque)))))}
	if RemotableValues(deep) {
		t.Error("opaque nested two aggregates deep reported remotable")
	}
	clean := []Value{ArrayVal(Array(Struct("Inner", Field("n", TInt32))))}
	if !RemotableValues(clean) {
		t.Error("clean nested aggregate reported non-remotable")
	}
}

// genValue builds a random remotable value of bounded depth for
// property-based tests.
func genValue(r *rand.Rand, depth int) Value {
	choices := 6
	if depth > 0 {
		choices = 8
	}
	switch r.Intn(choices) {
	case 0:
		return Bool(r.Intn(2) == 0)
	case 1:
		return Int32(int32(r.Int63()))
	case 2:
		return Int64(r.Int63() - r.Int63())
	case 3:
		return Float64(r.NormFloat64())
	case 4:
		b := make([]byte, r.Intn(64))
		r.Read(b)
		return String(string(b))
	case 5:
		b := make([]byte, r.Intn(256))
		r.Read(b)
		return ByteBuf(b)
	case 6:
		n := r.Intn(4)
		fields := make([]FieldDesc, n)
		vals := make([]Value, n)
		for i := 0; i < n; i++ {
			vals[i] = genValue(r, depth-1)
			fields[i] = Field("f", vals[i].Type)
		}
		return StructVal(Struct("G", fields...), vals...)
	default:
		// Arrays must be homogeneous: generate one element type.
		elem := genValue(r, depth-1)
		n := r.Intn(4)
		vals := make([]Value, 0, n)
		for i := 0; i < n; i++ {
			v := genValue(r, depth-1)
			if v.Type.Kind == elem.Type.Kind {
				vals = append(vals, v)
			}
		}
		// Ensure element kinds match descriptor exactly by reusing elem's type.
		arr := make([]Value, 0, len(vals)+1)
		arr = append(arr, elem)
		for _, v := range vals {
			if reflect.DeepEqual(v.Type, elem.Type) {
				arr = append(arr, v)
			}
		}
		return ArrayVal(Array(elem.Type), arr...)
	}
}

func TestPropertyDeepSizeNonNegative(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := genValue(rr, 3)
		return v.DeepSize() >= 0 && v.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDeepSizeAdditive(t *testing.T) {
	t.Parallel()
	// Size of a struct equals the sum of its field sizes: deep-copy
	// semantics have no sharing.
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := genValue(rr, 2)
		b := genValue(rr, 2)
		s := StructVal(Struct("Pair", Field("a", a.Type), Field("b", b.Type)), a, b)
		return s.DeepSize() == a.DeepSize()+b.DeepSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeros(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 150 << 10, len(zeroPage)} {
		v := Zeros(n)
		if v.Type != TBytes || len(v.Bytes) != n || cap(v.Bytes) != n {
			t.Errorf("Zeros(%d): type %v len %d cap %d", n, v.Type, len(v.Bytes), cap(v.Bytes))
		}
		if v.Bytes == nil {
			t.Errorf("Zeros(%d) is nil", n)
		}
	}
	// Past the page: a fresh, zeroed slice that does not alias it.
	big := Zeros(len(zeroPage) + 1)
	if len(big.Bytes) != len(zeroPage)+1 || &big.Bytes[0] == &zeroPage[0] {
		t.Errorf("Zeros(len+1) aliases the page or has len %d", len(big.Bytes))
	}
	// cap == len, so appending copies instead of writing into the page.
	grown := append(Zeros(16).Bytes, 0xff)
	grown[0] = 0xff
	if &grown[0] == &zeroPage[0] {
		t.Error("append wrote into the zero page")
	}
	for i, b := range zeroPage {
		if b != 0 {
			t.Fatalf("zero page byte %d = %#x", i, b)
		}
	}
}
