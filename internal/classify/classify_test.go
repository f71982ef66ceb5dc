package classify

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// figure3Stack reproduces the program control flow of paper Figure 3:
//
//	A::V() { a->W() }
//	A::W() { b1->X() }
//	B::X() { b2->Y() }
//	B::Y() { c->Z() }
//	C::Z() { CoCreateInstance(D) }
//
// Stack at the instantiation of D, innermost first.
func figure3Stack() []Frame {
	return []Frame{
		{Instance: 4, Class: "C", InstClassification: "c", Function: "Z"},
		{Instance: 3, Class: "B", InstClassification: "b2", Function: "Y"},
		{Instance: 2, Class: "B", InstClassification: "b1", Function: "X"},
		{Instance: 1, Class: "A", InstClassification: "a", Function: "W"},
		{Instance: 1, Class: "A", InstClassification: "a", Function: "V"},
	}
}

func TestFigure3Descriptors(t *testing.T) {
	t.Parallel()
	stack := figure3Stack()
	cases := []struct {
		kind Kind
		want string
	}{
		{PCB, "[D, C::Z, B::Y, B::X, A::W, A::V]"},
		{ST, "[D]"},
		{STCB, "[D, C, B, B, A]"},
		{IFCB, "[D, [c,Z], [b2,Y], [b1,X], [a,W], [a,V]]"},
		{EPCB, "[D, [c,Z], [b2,Y], [b1,X], [a,V]]"},
		{IB, "[D, c]"},
	}
	for _, c := range cases {
		got := Classify(New(c.kind, 0), "D", stack)
		if got != c.want {
			t.Errorf("%s: got %s, want %s", c.kind, got, c.want)
		}
	}
}

func TestIncrementalCountsAndResets(t *testing.T) {
	t.Parallel()
	c := New(Incremental, 0)
	if got := Classify(c, "D", nil); got != "[1]" {
		t.Errorf("first = %s", got)
	}
	if got := Classify(c, "E", nil); got != "[2]" {
		t.Errorf("second = %s", got)
	}
	c.Reset()
	if got := Classify(c, "D", nil); got != "[1]" {
		t.Errorf("after reset = %s", got)
	}
}

func TestIncrementalIgnoresContext(t *testing.T) {
	t.Parallel()
	// Same order, different stacks: identical classifications — exactly
	// why it fails on input-driven applications.
	a := New(Incremental, 0)
	b := New(Incremental, 0)
	x := Classify(a, "D", figure3Stack())
	y := Classify(b, "Q", nil)
	if x != y {
		t.Errorf("incremental differs by context: %s vs %s", x, y)
	}
}

func TestSTIgnoresStack(t *testing.T) {
	t.Parallel()
	c := New(ST, 0)
	if Classify(c, "D", figure3Stack()) != Classify(c, "D", nil) {
		t.Error("ST depends on stack")
	}
	if Classify(c, "D", nil) == Classify(c, "E", nil) {
		t.Error("ST ignores class")
	}
}

func TestIBUsesParentOnly(t *testing.T) {
	t.Parallel()
	c := New(IB, 0)
	if got := Classify(c, "D", nil); got != "[D, <main>]" {
		t.Errorf("main-created = %s", got)
	}
	stack := figure3Stack()
	if got := Classify(c, "D", stack); got != "[D, c]" {
		t.Errorf("component-created = %s", got)
	}
	// Deeper frames are irrelevant.
	if Classify(c, "D", stack) != Classify(c, "D", stack[:1]) {
		t.Error("IB looked past the parent")
	}
}

func TestDepthLimiting(t *testing.T) {
	t.Parallel()
	stack := figure3Stack()
	cases := []struct {
		depth int
		want  string
	}{
		{1, "[D, [c,Z]]"},
		{2, "[D, [c,Z], [b2,Y]]"},
		{4, "[D, [c,Z], [b2,Y], [b1,X], [a,W]]"},
		{8, "[D, [c,Z], [b2,Y], [b1,X], [a,W], [a,V]]"},
		{0, "[D, [c,Z], [b2,Y], [b1,X], [a,W], [a,V]]"},
	}
	for _, c := range cases {
		got := Classify(New(IFCB, c.depth), "D", stack)
		if got != c.want {
			t.Errorf("depth %d: got %s, want %s", c.depth, got, c.want)
		}
	}
}

func TestDepthCoarsensMonotonically(t *testing.T) {
	t.Parallel()
	// If two stacks are distinguished at depth d, they must also be
	// distinguished at any greater depth (more context never merges
	// classifications).
	s1 := figure3Stack()
	s2 := figure3Stack()
	s2[3].Function = "W2" // differs at depth 4
	for d := 1; d <= 3; d++ {
		a := New(IFCB, d)
		if Classify(a, "D", s1) != Classify(a, "D", s2) {
			t.Fatalf("depth %d should not distinguish", d)
		}
	}
	for _, d := range []int{4, 5, 0} {
		a := New(IFCB, d)
		if Classify(a, "D", s1) == Classify(a, "D", s2) {
			t.Fatalf("depth %d should distinguish", d)
		}
	}
}

func TestEntryPointCollapsing(t *testing.T) {
	t.Parallel()
	// Three contiguous frames of one instance collapse to the entry
	// (outermost) one.
	stack := []Frame{
		{Instance: 9, Class: "X", InstClassification: "x", Function: "inner"},
		{Instance: 9, Class: "X", InstClassification: "x", Function: "mid"},
		{Instance: 9, Class: "X", InstClassification: "x", Function: "entry"},
		{Instance: 2, Class: "Y", InstClassification: "y", Function: "go"},
		{Instance: 9, Class: "X", InstClassification: "x", Function: "reentry"},
	}
	got := Classify(New(EPCB, 0), "D", stack)
	want := "[D, [x,entry], [y,go], [x,reentry]]"
	if got != want {
		t.Errorf("EPCB = %s, want %s", got, want)
	}
	if got := Classify(New(EPCB, 0), "D", nil); got != "[D]" {
		t.Errorf("empty stack EPCB = %s", got)
	}
}

func TestNames(t *testing.T) {
	t.Parallel()
	if New(IFCB, 0).Name() != "ifcb" || New(IFCB, 4).Name() != "ifcb-d4" {
		t.Error("IFCB names wrong")
	}
	for _, k := range Kinds() {
		if New(k, 0).Name() != k.String() {
			t.Errorf("name mismatch for %v", k)
		}
		got, err := KindByName(k.String())
		if err != nil || got != k {
			t.Errorf("KindByName(%s) = %v, %v", k, got, err)
		}
	}
	if _, err := KindByName("nope"); err == nil {
		t.Error("unknown name resolved")
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown kind string")
	}
}

func TestKindsComplete(t *testing.T) {
	t.Parallel()
	if len(Kinds()) != 7 {
		t.Fatalf("paper defines seven classifiers, got %d", len(Kinds()))
	}
}

func TestDescriptorIDStability(t *testing.T) {
	t.Parallel()
	a := DescriptorID("D", "[D, c]")
	b := DescriptorID("D", "[D, c]")
	if a != b {
		t.Error("id not deterministic")
	}
	if DescriptorID("D", "[D, x]") == a {
		t.Error("distinct descriptors share id")
	}
	if !strings.HasPrefix(a, "D@") {
		t.Errorf("id %s lacks class prefix", a)
	}
}

func TestActivationPathDistinguishesDeepFrames(t *testing.T) {
	t.Parallel()
	// Two activation sites share the same innermost frame (the factory)
	// but differ one frame deeper (the requesting component). Their paths
	// — and the classifications that key on them — must stay distinct, or
	// the reachability join would attribute both activations to the same
	// effective creator.
	viaAlpha := []Frame{
		{Instance: 9, Class: "Factory", InstClassification: "f", Function: "Make"},
		{Instance: 2, Class: "Alpha", InstClassification: "a", Function: "Build"},
	}
	viaBeta := []Frame{
		{Instance: 9, Class: "Factory", InstClassification: "f", Function: "Make"},
		{Instance: 3, Class: "Beta", InstClassification: "b", Function: "Build"},
	}
	// Contiguous frames of one instance are one entry of the path.
	reentered := []Frame{
		{Instance: 9, Class: "Factory", InstClassification: "f", Function: "Make"},
		{Instance: 9, Class: "Factory", InstClassification: "f", Function: "Dispatch"},
		{Instance: 2, Class: "Alpha", InstClassification: "a", Function: "Build"},
	}
	for _, c := range []struct {
		name  string
		stack []Frame
		want  []string
	}{
		{"via Alpha", viaAlpha, []string{"Factory", "Alpha"}},
		{"via Beta", viaBeta, []string{"Factory", "Beta"}},
		{"reentered factory", reentered, []string{"Factory", "Alpha"}},
		{"main program", nil, []string{}},
	} {
		if got := ActivationPath(c.stack); !slices.Equal(got, c.want) {
			t.Errorf("%s: path = %q, want %q", c.name, got, c.want)
		}
	}

	tab := NewTable(New(IFCB, 0))
	if tab.Assign("Widget", viaAlpha) == tab.Assign("Widget", viaBeta) {
		t.Fatal("deep-frame difference collapsed into one classification")
	}
}

func TestTableAssignAndCounts(t *testing.T) {
	t.Parallel()
	tab := NewTable(New(IFCB, 0))
	id1 := tab.Assign("D", figure3Stack())
	id2 := tab.Assign("D", figure3Stack())
	if id1 != id2 {
		t.Error("same context classified differently")
	}
	id3 := tab.Assign("D", nil)
	if id3 == id1 {
		t.Error("different context classified identically")
	}
	if len(tab.descriptors) != 2 {
		t.Errorf("classifications = %d", len(tab.descriptors))
	}
	if got := tab.descriptors[id1]; got != "[D, [c,Z], [b2,Y], [b1,X], [a,W], [a,V]]" {
		t.Errorf("descriptor = %s", got)
	}
}

func TestTableResetPreservesIDs(t *testing.T) {
	t.Parallel()
	tab := NewTable(New(Incremental, 0))
	id1 := tab.Assign("D", nil)
	tab.Reset()
	id2 := tab.Assign("D", nil)
	if id1 != id2 {
		t.Error("incremental ids differ across runs after reset")
	}
	if len(tab.descriptors) != 1 {
		t.Errorf("classifications = %d", len(tab.descriptors))
	}
}

func TestPropertyDeterminism(t *testing.T) {
	t.Parallel()
	// All non-incremental classifiers are pure functions of (class, stack).
	f := func(classSel uint8, funcSel uint8, depth uint8) bool {
		classes := []string{"A", "B", "C"}
		funcs := []string{"F", "G"}
		stack := []Frame{
			{Instance: 1, Class: classes[int(classSel)%3], InstClassification: "p1",
				Function: funcs[int(funcSel)%2]},
			{Instance: 2, Class: "R", InstClassification: "p2", Function: "Run"},
		}
		for _, k := range []Kind{PCB, ST, STCB, IFCB, EPCB, IB} {
			c1 := New(k, int(depth%4))
			c2 := New(k, int(depth%4))
			if Classify(c1, "D", stack) != Classify(c2, "D", stack) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyContextualOrdering(t *testing.T) {
	t.Parallel()
	// IFCB refines STCB refines ST: if IFCB says two instantiations are
	// the same classification, so do the coarser classifiers.
	f := func(a, b uint8) bool {
		mk := func(x uint8) []Frame {
			// In real use a classification id embeds the class name, so
			// classification determines class; the generator preserves that.
			cls := []string{"P", "Q", "R"}[x%3]
			return []Frame{{
				Instance:           uint64(x%3) + 1,
				Class:              cls,
				InstClassification: strings.ToLower(cls),
				Function:           []string{"F", "G"}[(x>>1)%2],
			}}
		}
		sa, sb := mk(a), mk(b)
		ifcb := New(IFCB, 0)
		stcb := New(STCB, 0)
		st := New(ST, 0)
		if Classify(ifcb, "D", sa) == Classify(ifcb, "D", sb) {
			if Classify(stcb, "D", sa) != Classify(stcb, "D", sb) {
				return false
			}
			if Classify(st, "D", sa) != Classify(st, "D", sb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
