package idl

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	t.Parallel()
	cases := map[Kind]string{
		KindVoid:      "void",
		KindBool:      "boolean",
		KindInt32:     "long",
		KindInt64:     "hyper",
		KindFloat64:   "double",
		KindString:    "string",
		KindBytes:     "byte[]",
		KindStruct:    "struct",
		KindArray:     "array",
		KindInterface: "interface*",
		KindOpaque:    "void*",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestParamDirString(t *testing.T) {
	t.Parallel()
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "in,out" {
		t.Errorf("unexpected ParamDir strings: %v %v %v", In, Out, InOut)
	}
}

func TestStructConstructor(t *testing.T) {
	t.Parallel()
	pt := Struct("Point", Field("x", TInt32), Field("y", TInt32))
	if pt.Kind != KindStruct || pt.Name != "Point" || len(pt.Fields) != 2 {
		t.Fatalf("bad struct descriptor: %+v", pt)
	}
	if pt.Fields[0].Name != "x" || pt.Fields[1].Type != TInt32 {
		t.Fatalf("bad fields: %+v", pt.Fields)
	}
}

func TestRemotable(t *testing.T) {
	t.Parallel()
	cases := []struct {
		t    *TypeDesc
		want bool
	}{
		{TInt32, true},
		{TString, true},
		{TOpaque, false},
		{Array(TBytes), true},
		{Array(TOpaque), false},
		{Struct("ok", Field("a", TInt64)), true},
		{Struct("bad", Field("a", TInt64), Field("p", TOpaque)), false},
		{Struct("nested", Field("s", Struct("inner", Field("p", TOpaque)))), false},
		{InterfaceType("IFoo"), true},
	}
	for i, c := range cases {
		if got := c.t.Remotable(); got != c.want {
			t.Errorf("case %d (%s %q): Remotable = %v, want %v", i, c.t.Kind, c.t.Name, got, c.want)
		}
	}
}

func TestInterfaceDescMethodLookup(t *testing.T) {
	t.Parallel()
	d := &InterfaceDesc{
		IID:       "ITest",
		Remotable: true,
		Methods: []MethodDesc{
			{Name: "A", Result: TVoid},
			{Name: "B", Result: TInt32},
		},
	}
	if m := d.Method("B"); m == nil || m.Name != "B" {
		t.Fatalf("Method(B) = %+v", m)
	}
	if m := d.Method("missing"); m != nil {
		t.Fatalf("Method(missing) = %+v, want nil", m)
	}
}

func TestRegistry(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	d := &InterfaceDesc{IID: "IFoo", Remotable: true}
	r.Register(d)
	if got := r.Lookup("IFoo"); got != d {
		t.Fatalf("Lookup returned %+v", got)
	}
	if got := r.Lookup("IBar"); got != nil {
		t.Fatalf("Lookup(IBar) = %+v, want nil", got)
	}
	if n := len(r.IIDs()); n != 1 {
		t.Fatalf("%d interfaces, want 1", n)
	}
	ids := r.IIDs()
	if len(ids) != 1 || ids[0] != "IFoo" {
		t.Fatalf("IIDs = %v", ids)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r := NewRegistry()
	r.Register(&InterfaceDesc{IID: "IFoo"})
	r.Register(&InterfaceDesc{IID: "IFoo"})
}

func TestRegistryEmptyIIDPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty IID")
		}
	}()
	NewRegistry().Register(&InterfaceDesc{})
}
