package classify

import (
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refDescriptor is the string-building classifier the append path
// replaced, kept as the reference the descriptor bytes are held to. n is
// the incremental classifier's counter.
func refDescriptor(kind Kind, depth int, n *int, class string, stack []Frame) string {
	switch kind {
	case Incremental:
		*n++
		return "[" + strconv.Itoa(*n) + "]"
	case ST:
		return "[" + class + "]"
	case IB:
		parent := "<main>"
		if len(stack) > 0 {
			parent = stack[0].InstClassification
		}
		return "[" + class + ", " + parent + "]"
	}
	frames := stack
	if kind == EPCB || kind == STCB {
		frames = refEntryPoints(frames)
	}
	if depth > 0 && len(frames) > depth {
		frames = frames[:depth]
	}
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(class)
	for i := range frames {
		b.WriteString(", ")
		switch kind {
		case PCB:
			b.WriteString(frames[i].Class)
			b.WriteString("::")
			b.WriteString(frames[i].Function)
		case STCB:
			b.WriteString(frames[i].Class)
		default: // IFCB, EPCB
			b.WriteByte('[')
			b.WriteString(frames[i].InstClassification)
			b.WriteByte(',')
			b.WriteString(frames[i].Function)
			b.WriteByte(']')
		}
	}
	b.WriteByte(']')
	return b.String()
}

// refEntryPoints is the copying collapse of contiguous same-instance
// frames to their outermost frame.
func refEntryPoints(stack []Frame) []Frame {
	if len(stack) == 0 {
		return stack
	}
	out := make([]Frame, 0, len(stack))
	for i := 0; i < len(stack); {
		j := i
		for j+1 < len(stack) && stack[j+1].Instance == stack[i].Instance {
			j++
		}
		out = append(out, stack[j])
		i = j + 1
	}
	return out
}

// refActivationPath is the activation path built from the copied frames.
func refActivationPath(stack []Frame) []string {
	frames := refEntryPoints(stack)
	path := make([]string, len(frames))
	for i, f := range frames {
		path[i] = f.Class
	}
	return path
}

// refDescriptorID is the id derivation through hash/fnv.
func refDescriptorID(class, descriptor string) string {
	h := fnv.New64a()
	h.Write([]byte(descriptor))
	return class + "@" + strconv.FormatUint(h.Sum64(), 16)
}

// fuzzNames mixes empty names with names holding the descriptor's own
// punctuation.
var fuzzNames = []string{"", "A", "B", "Widget", "x, y", "[c,Z]", "<main>", "::"}

// decodeContexts turns fuzz bytes into a depth and a sequence of (class,
// stack) instantiation contexts. Instance ids come from a small range so
// that contiguous frames of one instance, and whole repeated contexts,
// are common.
func decodeContexts(data []byte) (depth int, classes []string, stacks [][]Frame) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	name := func() string { return fuzzNames[next()%len(fuzzNames)] }
	depth = next() % 7
	for len(data) > 0 && len(stacks) < 16 {
		class := name()
		stack := make([]Frame, next()%9)
		for i := range stack {
			stack[i] = Frame{Instance: uint64(next() % 4), Class: name(),
				InstClassification: name(), Function: name()}
		}
		classes = append(classes, class)
		stacks = append(stacks, stack)
	}
	return depth, classes, stacks
}

// checkAgainstReference runs every classifier over the contexts in order.
func checkAgainstReference(t *testing.T, depth int, classes []string, stacks [][]Frame) {
	t.Helper()
	for _, kind := range Kinds() {
		direct := New(kind, depth)
		tab := NewTable(New(kind, depth))
		var nDirect, nTable int
		for i, stack := range stacks {
			class := classes[i]
			want := refDescriptor(kind, depth, &nDirect, class, stack)
			if got := string(direct.AppendDescriptor(nil, class, stack)); got != want {
				t.Fatalf("%s depth %d: descriptor %q, reference %q", kind, depth, got, want)
			}
			// A nil path and an empty one marshal differently.
			if got, want := ActivationPath(stack), refActivationPath(stack); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("activation path %q, reference %q", got, want)
			}
			// First sight, then a repeat of the same context.
			for range 2 {
				desc := refDescriptor(kind, depth, &nTable, class, stack)
				want := refDescriptorID(class, desc)
				if got := DescriptorID(class, desc); got != want {
					t.Fatalf("DescriptorID(%q, %q) = %q, reference %q", class, desc, got, want)
				}
				if got := tab.Assign(class, stack); got != want {
					t.Fatalf("%s depth %d: Assign(%q) = %q, want %q (descriptor %q)", kind, depth, class, got, want, desc)
				}
				if got := tab.descriptors[want]; got != desc {
					t.Fatalf("%s: recorded descriptor %q, want %q", kind, got, desc)
				}
			}
		}
	}
}

// FuzzAppendDescriptor holds every classifier's appended descriptor to the
// string-building reference byte for byte, and Table.Assign to the
// reference id on first sight and on every repeat.
func FuzzAppendDescriptor(f *testing.F) {
	f.Add([]byte{0, 4, 5, 0, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 3, 3, 3})
	f.Add([]byte{2, 3, 8, 1, 1, 2, 3, 1, 1, 2, 4, 2, 0, 0, 0, 1, 6, 6, 6, 5, 5, 5, 1, 7, 7, 7})
	f.Add([]byte{6, 0, 0, 3, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		depth, classes, stacks := decodeContexts(data)
		checkAgainstReference(t, depth, classes, stacks)
	})
}

// TestDescriptorMatchesReference holds the paper's Figure 3 stack, an
// empty stack and a stack of re-entered instances to the reference at
// every depth the fuzz target draws.
func TestDescriptorMatchesReference(t *testing.T) {
	t.Parallel()
	reentered := []Frame{
		{Instance: 9, Class: "X", InstClassification: "x", Function: "inner"},
		{Instance: 9, Class: "X", InstClassification: "x", Function: "entry"},
		{Instance: 2, Class: "Y", InstClassification: "y", Function: "go"},
		{Instance: 9, Class: "X", InstClassification: "x", Function: "reentry"},
		{Instance: 9, Class: "X", InstClassification: "x", Function: "first"},
	}
	classes := []string{"D", "D", "E", "D", "E"}
	stacks := [][]Frame{figure3Stack(), nil, reentered, figure3Stack(), nil}
	for depth := 0; depth <= 6; depth++ {
		checkAgainstReference(t, depth, classes, stacks)
	}
}

// TestAssignRepeatAllocs holds the classification of an already-seen
// context to zero allocations, and a new id to one. Not parallel, so no
// other test's allocations are counted.
//
//lint:allow paralleltest allocation counts are process-wide
func TestAssignRepeatAllocs(t *testing.T) {
	tab := NewTable(New(IFCB, 0))
	stack := figure3Stack()
	tab.Assign("D", stack)
	if n := testing.AllocsPerRun(100, func() { tab.Assign("D", stack) }); n != 0 {
		t.Errorf("Assign of a seen IFCB context allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { DescriptorID("D", "[D, [c,Z]]") }); n != 1 {
		t.Errorf("DescriptorID allocates %v objects, want 1 (the id)", n)
	}
}

// TestAssignKeysSurviveChunks classifies enough distinct contexts, one of
// them longer than any chunk made so far, to fill many key chunks, then
// checks that every stored key and descriptor still reads as the
// reference: a key is never overwritten when a later one is stored.
func TestAssignKeysSurviveChunks(t *testing.T) {
	t.Parallel()
	tab := NewTable(New(IFCB, 0))
	stack := figure3Stack()
	classes := make([]string, 2000)
	for i := range classes {
		classes[i] = "K" + strconv.Itoa(i)
	}
	classes[700] = strings.Repeat("L", 5*minKeyChunk<<4)
	ids := make([]string, len(classes))
	for i, class := range classes {
		ids[i] = tab.Assign(class, stack)
	}
	for i, class := range classes {
		n := 0
		desc := refDescriptor(IFCB, 0, &n, class, stack)
		if got := tab.Assign(class, stack); got != ids[i] || got != refDescriptorID(class, desc) {
			t.Fatalf("context %d: Assign = %q, first %q, reference %q", i, got, ids[i], refDescriptorID(class, desc))
		}
		if got := tab.descriptors[ids[i]]; got != desc {
			t.Fatalf("context %d: stored descriptor %q, want %q", i, got, desc)
		}
	}
	if len(tab.ids) != len(classes) {
		t.Fatalf("%d contexts stored, want %d", len(tab.ids), len(classes))
	}
}

// TestAssignNewContextAllocs holds the classification of a context the
// table has not seen to one allocation, the id: the key goes into the
// table's key chunk. Not parallel, so no other test's allocations are
// counted.
//
//lint:allow paralleltest allocation counts are process-wide
func TestAssignNewContextAllocs(t *testing.T) {
	const runs = 100
	tab := NewTable(New(IFCB, 0))
	stack := figure3Stack()
	classes := make([]string, runs+1) // AllocsPerRun makes one warm-up call
	for i := range classes {
		classes[i] = "D" + strconv.Itoa(i)
	}
	i := 0
	n := testing.AllocsPerRun(runs, func() {
		tab.Assign(classes[i], stack)
		i++
	})
	if n != 1 {
		t.Errorf("Assign of a new IFCB context allocates %v objects, want 1 (the id)", n)
	}
	if len(tab.ids) != runs+1 {
		t.Fatalf("%d contexts classified, want %d", len(tab.ids), runs+1)
	}
}
