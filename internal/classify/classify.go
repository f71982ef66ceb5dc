// Package classify implements Coign's instance classifiers (paper §3.4).
//
// An instance classifier identifies component instances with similar
// communication profiles across separate executions of an application. At
// each instantiation request it forms a descriptor from the component's
// static type and the execution call stack; instances with equal
// descriptors belong to one classification, and the profile analysis
// engine maps classifications — not individual instances — to machines.
package classify

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Frame is one entry of the component shadow stack maintained by the
// runtime executive, innermost frame first: the instance executing, its
// class, the classification that instance was assigned at its own
// creation, and the interface function being executed.
type Frame struct {
	Instance           uint64
	Class              string
	InstClassification string
	Function           string
}

// Classifier forms instantiation descriptors. Implementations must be
// deterministic: equal (class, stack) inputs yield equal descriptors
// across executions — except for the incremental straw man, whose whole
// point is that it is not.
type Classifier interface {
	// Name returns the classifier's short name (with depth suffix if
	// depth-limited), e.g. "ifcb" or "ifcb-d4".
	Name() string
	// AppendDescriptor appends the descriptor for an instantiation of
	// class with the given call stack (innermost frame first) to dst and
	// returns the extended buffer.
	AppendDescriptor(dst []byte, class string, stack []Frame) []byte
	// Reset clears per-execution state at the start of a run.
	Reset()
}

// Kind selects one of the seven classifiers.
type Kind int

// The seven classifiers of paper §3.4, Figure 3.
const (
	// Incremental assigns each instance a fresh classification in order of
	// instantiation — the straw man that fails on input-driven programs.
	Incremental Kind = iota
	// PCB (procedure called-by) groups by static type and the stack of
	// Class::Function frames, without distinguishing instances.
	PCB
	// ST (static type) groups by component class alone.
	ST
	// STCB (static-type called-by) groups by class and the classes of the
	// instances on the stack.
	STCB
	// IFCB (internal-function called-by) groups by class and the
	// (instance-classification, function) pairs on the stack. The most
	// contextual and the classifier Coign typically uses.
	IFCB
	// EPCB (entry-point called-by) is IFCB restricted to the function by
	// which each component instance on the stack was entered.
	EPCB
	// IB (instantiated-by) groups by class and parent classification —
	// functionally IFCB with a depth-1 back-trace.
	IB
)

// String returns the classifier's short name.
func (k Kind) String() string {
	switch k {
	case Incremental:
		return "incremental"
	case PCB:
		return "pcb"
	case ST:
		return "st"
	case STCB:
		return "stcb"
	case IFCB:
		return "ifcb"
	case EPCB:
		return "epcb"
	case IB:
		return "ib"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists all seven classifiers in the order of paper Table 2.
func Kinds() []Kind {
	return []Kind{Incremental, PCB, ST, STCB, IFCB, EPCB, IB}
}

// KindByName resolves a short name (without depth suffix).
func KindByName(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("classify: unknown classifier %q", name)
}

// New returns a classifier of the given kind. depth limits the stack
// back-trace for the called-by classifiers (PCB, STCB, IFCB, EPCB);
// depth <= 0 walks the complete stack. Depth is ignored by the others.
func New(kind Kind, depth int) Classifier {
	switch kind {
	case Incremental:
		return &incremental{}
	case ST:
		return stc{}
	case PCB, STCB, IFCB, EPCB:
		return &calledBy{kind: kind, depth: depth}
	case IB:
		return ib{}
	default:
		panic("classify: unknown kind")
	}
}

// incremental is the straw-man classifier.
type incremental struct {
	n int
}

func (c *incremental) Name() string { return "incremental" }
func (c *incremental) Reset()       { c.n = 0 }
func (c *incremental) AppendDescriptor(dst []byte, class string, stack []Frame) []byte {
	c.n++
	dst = append(dst, '[')
	dst = strconv.AppendInt(dst, int64(c.n), 10)
	return append(dst, ']')
}

// stc is the static-type classifier.
type stc struct{}

func (stc) Name() string { return "st" }
func (stc) Reset()       {}
func (stc) AppendDescriptor(dst []byte, class string, stack []Frame) []byte {
	dst = append(dst, '[')
	dst = append(dst, class...)
	return append(dst, ']')
}

// ib is the instantiated-by classifier.
type ib struct{}

func (ib) Name() string { return "ib" }
func (ib) Reset()       {}
func (ib) AppendDescriptor(dst []byte, class string, stack []Frame) []byte {
	parent := "<main>"
	if len(stack) > 0 {
		parent = stack[0].InstClassification
	}
	dst = append(dst, '[')
	dst = append(dst, class...)
	dst = append(dst, ", "...)
	dst = append(dst, parent...)
	return append(dst, ']')
}

// calledBy implements the PCB, STCB, IFCB, and EPCB call-chain classifiers.
type calledBy struct {
	kind  Kind
	depth int
}

func (c *calledBy) Name() string {
	if c.depth > 0 {
		return fmt.Sprintf("%s-d%d", c.kind, c.depth)
	}
	return c.kind.String()
}

func (c *calledBy) Reset() {}

func (c *calledBy) AppendDescriptor(dst []byte, class string, stack []Frame) []byte {
	// STCB groups by the classes of the *instances* on the stack and EPCB
	// by the function that entered each instance, so both collapse
	// contiguous frames of one instance; PCB and IFCB keep every frame.
	collapse := c.kind == EPCB || c.kind == STCB
	dst = append(dst, '[')
	dst = append(dst, class...)
	for i, n := 0, 0; i < len(stack) && (c.depth <= 0 || n < c.depth); i, n = i+1, n+1 {
		if collapse { // in place: skip to the run's entry frame
			i = entryPoint(stack, i)
		}
		f := &stack[i]
		dst = append(dst, ", "...)
		switch c.kind {
		case PCB:
			dst = append(dst, f.Class...)
			dst = append(dst, "::"...)
			dst = append(dst, f.Function...)
		case STCB:
			dst = append(dst, f.Class...)
		default: // IFCB, EPCB
			dst = append(dst, '[')
			dst = append(dst, f.InstClassification...)
			dst = append(dst, ',')
			dst = append(dst, f.Function...)
			dst = append(dst, ']')
		}
	}
	return append(dst, ']')
}

// entryPoint returns the index of the frame by which the instance of
// stack[i] was entered: the outermost frame of the contiguous run of its
// frames that starts at i (with innermost-first ordering, the last of the
// run).
func entryPoint(stack []Frame, i int) int {
	j := i
	for j+1 < len(stack) && stack[j+1].Instance == stack[i].Instance {
		j++
	}
	return j
}

// DescriptorID derives the stable classification id for a descriptor: the
// class name plus a 64-bit FNV-1a digest of the descriptor. Hashing keeps
// ids bounded (descriptors reference parent classifications recursively)
// while remaining identical across executions, which is what lets the
// lightweight runtime correlate instantiations with profiled
// classifications.
func DescriptorID(class, descriptor string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(descriptor); i++ {
		h ^= uint64(descriptor[i])
		h *= prime64
	}
	var hex [16]byte
	return class + "@" + string(strconv.AppendUint(hex[:0], h, 16))
}

// minKeyChunk is the size of a Table's first key chunk; each later chunk
// doubles the last.
const minKeyChunk = 256

// Table assigns classification ids. One Table serves one classifier over
// one or more runs.
type Table struct {
	classifier  Classifier
	key         []byte            // scratch: the (class, descriptor) key of the current Assign
	keys        strings.Builder   // the current key chunk; stored keys are substrings of chunks
	ids         map[string]string // key -> id
	descriptors map[string]string // id -> descriptor, for the digest-collision check
}

// NewTable returns a table over the given classifier.
func NewTable(c Classifier) *Table {
	return &Table{
		classifier:  c,
		ids:         make(map[string]string),
		descriptors: make(map[string]string),
	}
}

// Assign classifies one instantiation and returns its classification id.
// The descriptor is built into a buffer the table reuses and looked up
// without being copied, so a context seen before costs no allocation. A
// new one is hashed and checked for collisions once, and costs one
// allocation, its id: the key (and the descriptor, a substring of it) is
// appended to the table's current key chunk, which only ever grows at its
// end. An id lives as long as the profiles and placements that name it, so
// it is a string of its own and pins no key.
func (t *Table) Assign(class string, stack []Frame) string {
	// The key is the length-prefixed class followed by the descriptor:
	// ids embed the class, and the incremental descriptor does not.
	key := binary.AppendUvarint(t.key[:0], uint64(len(class)))
	key = append(key, class...)
	prefix := len(key)
	key = t.classifier.AppendDescriptor(key, class, stack)
	t.key = key
	id, ok := t.ids[string(key)]
	if !ok {
		k := t.storeKey(key)
		desc := k[prefix:]
		id = DescriptorID(class, desc)
		if prev, ok := t.descriptors[id]; ok && prev != desc {
			// A 64-bit digest collision between distinct descriptors of the
			// same class: disambiguate deterministically by descriptor length.
			id = id + "+" + strconv.Itoa(len(desc))
		}
		t.ids[k] = id
		t.descriptors[id] = desc
	}
	return id
}

// storeKey copies key into the current key chunk and returns it as a
// substring of the chunk. A chunk never grows past the capacity it was
// made with: a full one is left to the keys already in it and a new one,
// twice as large, is begun, so no stored key is copied twice.
func (t *Table) storeKey(key []byte) string {
	if t.keys.Cap()-t.keys.Len() < len(key) {
		size := max(2*t.keys.Cap(), minKeyChunk, len(key))
		t.keys = strings.Builder{}
		t.keys.Grow(size)
	}
	start := t.keys.Len()
	t.keys.Write(key)
	return t.keys.String()[start:]
}

// AppendActivationPath appends stack's activation path (see
// ActivationPath) to dst and returns the extended slice, so a caller can
// build it into a buffer it reuses.
func AppendActivationPath(dst []string, stack []Frame) []string {
	for i := 0; i < len(stack); i++ {
		i = entryPoint(stack, i)
		dst = append(dst, stack[i].Class)
	}
	return dst
}

// Reset clears per-execution classifier state but keeps the id table, so a
// later run can be correlated against earlier ones.
func (t *Table) Reset() { t.classifier.Reset() }

// Name returns the name of the table's classifier.
func (t *Table) Name() string { return t.classifier.Name() }
