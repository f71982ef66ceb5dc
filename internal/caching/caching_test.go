package caching

import (
	"testing"

	"repro/internal/idl"
)

func TestLookupStoreRoundTrip(t *testing.T) {
	t.Parallel()
	c := New()
	args := []idl.Value{idl.Int32(7)}
	if _, hit := c.Lookup(1, "Query", args); hit {
		t.Fatal("hit on empty cache")
	}
	rets := []idl.Value{idl.String("answer")}
	c.Store(1, "Query", args, rets)
	got, hit := c.Lookup(1, "Query", args)
	if !hit || got[0].AsString() != "answer" {
		t.Fatalf("lookup = %v, %v", got, hit)
	}
	if c.Hits() != 1 || c.Len() != 1 {
		t.Fatalf("stats: hits=%d len=%d", c.Hits(), c.Len())
	}
}

func TestKeyDiscrimination(t *testing.T) {
	t.Parallel()
	c := New()
	c.Store(1, "Query", []idl.Value{idl.Int32(7)}, []idl.Value{idl.Int32(1)})
	// Different argument.
	if _, hit := c.Lookup(1, "Query", []idl.Value{idl.Int32(8)}); hit {
		t.Error("different args hit")
	}
	// Different instance.
	if _, hit := c.Lookup(2, "Query", []idl.Value{idl.Int32(7)}); hit {
		t.Error("different instance hit")
	}
	// Different method.
	if _, hit := c.Lookup(1, "Peek", []idl.Value{idl.Int32(7)}); hit {
		t.Error("different method hit")
	}
}

func TestRichArgumentDigests(t *testing.T) {
	t.Parallel()
	c := New()
	pt := idl.Struct("P", idl.Field("a", idl.TString), idl.Field("b", idl.TBytes))
	argsA := []idl.Value{idl.StructVal(pt, idl.String("x"), idl.ByteBuf([]byte{1, 2}))}
	argsB := []idl.Value{idl.StructVal(pt, idl.String("x"), idl.ByteBuf([]byte{1, 3}))}
	c.Store(1, "M", argsA, []idl.Value{idl.Int32(1)})
	if _, hit := c.Lookup(1, "M", argsB); hit {
		t.Error("nested byte difference not discriminated")
	}
	if _, hit := c.Lookup(1, "M", argsA); !hit {
		t.Error("identical nested args missed")
	}
}

type fakePtr struct {
	iid string
	id  uint64
}

func (p fakePtr) IID() string        { return p.iid }
func (p fakePtr) InstanceID() uint64 { return p.id }

func TestInterfacePointerArgs(t *testing.T) {
	t.Parallel()
	c := New()
	a := []idl.Value{idl.IfacePtr(fakePtr{"I", 1})}
	b := []idl.Value{idl.IfacePtr(fakePtr{"I", 2})}
	c.Store(1, "M", a, []idl.Value{idl.Int32(1)})
	if _, hit := c.Lookup(1, "M", b); hit {
		t.Error("different object references hit")
	}
	if _, hit := c.Lookup(1, "M", a); !hit {
		t.Error("same object reference missed")
	}
}

func TestOpaqueArgumentsNeverCached(t *testing.T) {
	t.Parallel()
	c := New()
	args := []idl.Value{idl.OpaquePtr("shm")}
	c.Store(1, "M", args, []idl.Value{idl.Int32(1)})
	if c.Len() != 0 {
		t.Fatal("opaque args stored")
	}
	if _, hit := c.Lookup(1, "M", args); hit {
		t.Fatal("opaque args hit")
	}
}

func TestOpaqueResultsNeverCached(t *testing.T) {
	t.Parallel()
	c := New()
	c.Store(1, "M", []idl.Value{idl.Int32(1)}, []idl.Value{idl.OpaquePtr("shm")})
	if c.Len() != 0 {
		t.Fatal("opaque results stored")
	}
}

func TestCapacityBound(t *testing.T) {
	t.Parallel()
	c := New()
	for i := 0; i < maxEntries+3; i++ {
		c.Store(1, "M", []idl.Value{idl.Int32(int32(i))}, []idl.Value{idl.Int32(1)})
	}
	if c.Len() != maxEntries {
		t.Fatalf("cache holds %d entries, want its bound %d", c.Len(), maxEntries)
	}
}
