package factory

import (
	"testing"

	"repro/internal/com"
)

func testClass() *com.Class {
	return &com.Class{ID: "CLSID_X", Name: "X", New: func() com.Object { return nil }}
}

func TestNewRejectsEmpty(t *testing.T) {
	t.Parallel()
	if _, err := New(nil); err == nil {
		t.Fatal("empty distribution accepted")
	}
}

func TestPlaceKnownClassifications(t *testing.T) {
	t.Parallel()
	f, err := New(map[string]com.Machine{
		"a": com.Client,
		"b": com.Server,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Place("a", testClass(), com.Client); got != com.Client {
		t.Errorf("a placed on %v", got)
	}
	if got := f.Place("b", testClass(), com.Client); got != com.Server {
		t.Errorf("b placed on %v", got)
	}
	if f.Relocations() != 1 {
		t.Errorf("relocations = %d", f.Relocations())
	}
	if f.Unknown() != 0 {
		t.Errorf("unknown = %d", f.Unknown())
	}
}

func TestPlaceUnknownFollowsCreator(t *testing.T) {
	t.Parallel()
	f, _ := New(map[string]com.Machine{"a": com.Server})
	if got := f.Place("mystery", testClass(), com.Server); got != com.Server {
		t.Errorf("unknown placed on %v", got)
	}
	if f.Unknown() != 1 {
		t.Errorf("unknown = %d", f.Unknown())
	}
	if f.Relocations() != 0 {
		t.Errorf("relocations = %d", f.Relocations())
	}
}
