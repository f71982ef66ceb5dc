package informer

import (
	"testing"

	"repro/internal/idl"
)

type fakePtr struct{ id uint64 }

func (p fakePtr) IID() string        { return "IFake" }
func (p fakePtr) InstanceID() uint64 { return p.id }

var readMethod = idl.MethodDesc{
	Name: "Read",
	Params: []idl.ParamDesc{
		{Name: "off", Dir: idl.In, Type: idl.TInt32},
		{Name: "data", Dir: idl.Out, Type: idl.TBytes},
	},
	Result: idl.TInt32,
}

var remotableIface = &idl.InterfaceDesc{
	IID: "IReader", Remotable: true, Methods: []idl.MethodDesc{readMethod},
}

var localIface = &idl.InterfaceDesc{
	IID: "ISpriteCache", Remotable: false, Methods: []idl.MethodDesc{readMethod},
}

func TestProfilingMeasuresDeepCopySize(t *testing.T) {
	t.Parallel()
	var p Profiling
	args := []idl.Value{idl.Int32(7)}
	in := p.InspectIn(remotableIface, &readMethod, args)
	if in.Bytes != DCOMHeaderBytes+4 {
		t.Errorf("in bytes = %d", in.Bytes)
	}
	if !in.Remotable {
		t.Error("plain args reported non-remotable")
	}
	rets := []idl.Value{idl.ByteBuf(make([]byte, 1000)), idl.Int32(0)}
	out := p.InspectOut(remotableIface, &readMethod, rets)
	if out.Bytes != DCOMHeaderBytes+4+1000+4 {
		t.Errorf("out bytes = %d", out.Bytes)
	}
}

func TestProfilingFindsInterfacePointers(t *testing.T) {
	t.Parallel()
	var p Profiling
	args := []idl.Value{idl.IfacePtr(fakePtr{3}),
		idl.StructVal(idl.Struct("S", idl.Field("i", idl.InterfaceType("IFake"))),
			idl.IfacePtr(fakePtr{4}))}
	in := p.InspectIn(remotableIface, &readMethod, args)
	if in.Pointers != 2 {
		t.Fatalf("pointers = %d, want 2", in.Pointers)
	}
}

func TestProfilingDetectsNonRemotable(t *testing.T) {
	t.Parallel()
	var p Profiling
	// Opaque value in parameters.
	in := p.InspectIn(remotableIface, &readMethod, []idl.Value{idl.OpaquePtr("shm")})
	if in.Remotable {
		t.Error("opaque pointer reported remotable")
	}
	// Interface declared local.
	in = p.InspectIn(localIface, &readMethod, []idl.Value{idl.Int32(1)})
	if in.Remotable {
		t.Error("local interface reported remotable")
	}
	// Nil interface metadata: assume remotable.
	in = p.InspectIn(nil, nil, []idl.Value{idl.Int32(1)})
	if !in.Remotable {
		t.Error("nil metadata reported non-remotable")
	}
}

func TestDistributionOnlyScansPointers(t *testing.T) {
	t.Parallel()
	var d Distribution
	args := []idl.Value{idl.ByteBuf(make([]byte, 5000)), idl.IfacePtr(fakePtr{9}),
		idl.IfacePtr(nil), idl.ArrayVal(idl.Array(idl.InterfaceType("IFake")), idl.IfacePtr(fakePtr{10}))}
	in := d.InspectIn(localIface, &readMethod, args)
	if in.Bytes != 0 {
		t.Errorf("distribution informer measured %d bytes", in.Bytes)
	}
	if !in.Remotable {
		t.Error("distribution informer checked remotability")
	}
	// The nested pointer counts; the nil one does not.
	if in.Pointers != 2 {
		t.Errorf("pointers = %d, want 2", in.Pointers)
	}
	out := d.InspectOut(localIface, &readMethod, args)
	if out != in {
		t.Errorf("InspectOut = %+v, InspectIn = %+v", out, in)
	}
}

func TestMeasureMessage(t *testing.T) {
	t.Parallel()
	if got := MeasureMessage(nil); got != DCOMHeaderBytes {
		t.Errorf("empty message = %d", got)
	}
	vals := []idl.Value{idl.String("abcd"), idl.Int64(1)}
	if got := MeasureMessage(vals); got != DCOMHeaderBytes+8+8 {
		t.Errorf("message = %d", got)
	}
}

func TestNames(t *testing.T) {
	t.Parallel()
	if (Profiling{}).Name() != "profiling" || (Distribution{}).Name() != "distribution" {
		t.Error("informer names wrong")
	}
}
