package profile

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/netsim"
)

// MainProgram is the classification id of the application's main program
// (the executable shell that drives components but is not itself a
// component). It is permanently constrained to the client.
const MainProgram = "<main>"

// Pair is one ordered classification pair's entry in a profile: its
// endpoints by classification number (see Profile.Name) and the summary
// of the messages that crossed it.
type Pair struct {
	Src, Dst int32
	EdgeSummary
}

// EdgeSummary aggregates the messages that crossed one edge: request and
// reply size histograms, exact byte totals (for the bucketing ablation),
// and whether any call used a non-remotable interface, which forces
// co-location of the endpoints.
type EdgeSummary struct {
	Calls         int64
	In            BucketCounts
	Out           BucketCounts
	ExactInBytes  int64
	ExactOutBytes int64
	NonRemotable  bool
}

// Record adds one call with the given request/reply payload sizes.
func (e *EdgeSummary) Record(inBytes, outBytes int, nonRemotable bool) {
	e.Calls++
	e.In.Add(inBytes, 1)
	e.Out.Add(outBytes, 1)
	e.ExactInBytes += int64(inBytes)
	e.ExactOutBytes += int64(outBytes)
	if nonRemotable {
		e.NonRemotable = true
	}
}

// Merge folds other into e.
func (e *EdgeSummary) Merge(other *EdgeSummary) {
	e.Calls += other.Calls
	e.In.Merge(other.In)
	e.Out.Merge(other.Out)
	e.ExactInBytes += other.ExactInBytes
	e.ExactOutBytes += other.ExactOutBytes
	e.NonRemotable = e.NonRemotable || other.NonRemotable
}

// BucketTime prices one message in size bucket idx under a network
// profile: the time of a message of the bucket's representative size. It
// is the one per-message rule of bucketed pricing, for the graph's edges
// and for classifier evaluation alike.
func BucketTime(np *netsim.Profile, idx int) time.Duration {
	return np.MessageTime(BucketRepresentative(idx))
}

// Time prices the edge under a network profile using bucket
// representatives: the cost of all calls if the endpoints were on opposite
// machines.
func (e *EdgeSummary) Time(np *netsim.Profile) time.Duration {
	var t time.Duration
	for _, h := range [2]BucketCounts{e.In, e.Out} {
		for _, b := range h {
			t += time.Duration(b.Count) * BucketTime(np, b.Index)
		}
	}
	return t
}

// ExactTime prices the edge using exact byte totals: calls * per-message
// cost + bytes at marginal cost. Used by the bucketing-accuracy ablation.
func (e *EdgeSummary) ExactTime(np *netsim.Profile) time.Duration {
	if e.Calls == 0 {
		return 0
	}
	perMsg := np.MessageTime(0)
	marginal := func(total int64) time.Duration {
		if total == 0 {
			return 0
		}
		// Price the average-size message and subtract the per-message base.
		avg := int(total / e.Calls)
		return time.Duration(e.Calls) * (np.MessageTime(avg) - perMsg)
	}
	return time.Duration(2*e.Calls)*perMsg + marginal(e.ExactInBytes) + marginal(e.ExactOutBytes)
}

// ClassificationInfo aggregates the instances grouped under one
// classification.
type ClassificationInfo struct {
	ID        string
	Class     string
	Instances int64
	// Path is the activation call path observed at the classification's
	// first instantiation: the classes of the component instances on the
	// stack, innermost first (empty when the main program activated
	// directly). The reachability coverage analysis joins it against
	// static activation sites. It is shared with the runtime's record of
	// that instantiation, so it is never written into.
	Path []string
}

// MethodStats aggregates per-method call and state-mutation counts — the
// profile evidence the purity analysis folds into component grading and
// the purity verifier diffs against static read-only claims.
type MethodStats struct {
	// Classification numbers the method's classification (see
	// Profile.Name); Method names the method.
	Classification int32
	Method         string
	Calls          int64
	Writes         int64
}

// Merge folds other's counts into m.
func (m *MethodStats) Merge(other *MethodStats) {
	m.Calls += other.Calls
	m.Writes += other.Writes
}

// Profile is a complete ICC profile: the output of one or more profiling
// runs under a given classifier.
//
// A profile numbers every classification name it holds once, in
// first-seen order (Number, Name), and keys its edge and method tables by
// those numbers: an edge by the pair of its endpoints' numbers, a method
// by its classification's number and the number of its name. The tables
// grow in first-seen order while a run folds; every producer hands the
// profile out with them in name order (Sort). A name is
// looked up only where a name comes in: an instantiation, a join with
// another profile (Merge, Decode), or a caller asking by name. The tables'
// entries are allocated a chunk at a time and never move once made, so a
// *ClassificationInfo, *EdgeSummary or *MethodStats stays the profile's
// own for as long as the profile lives.
type Profile struct {
	App        string
	Scenarios  []string
	Classifier string

	// Classifications lists the instance classifications observed, by id;
	// Classification finds one by name.
	Classifications []*ClassificationInfo
	// Edges aggregates communication between classifications: one entry
	// per ordered pair, by source and then destination name.
	Edges []*Pair
	// Methods aggregates per-method call and mutation counts: one entry per
	// method of a classification, by classification and then method name.
	Methods []*MethodStats

	names   []named          // indexed by classification number
	numbers map[string]int32 // name -> classification number
	edgeAt  map[uint64]int32 // key(src, dst) -> index in Edges

	methodNames   []string         // method number -> name
	methodNumbers map[string]int32 // name -> method number
	methodAt      map[uint64]int32 // key(classification, method number) -> index in Methods

	classes chunks[ClassificationInfo]
	pairs   chunks[Pair]
	stats   chunks[MethodStats]
	slab    []Bucket // the uncarved rest of the histogram slab
}

// named is one numbered classification name and, once the profile
// observed an instance of it, its entry in Classifications.
type named struct {
	name string
	info *ClassificationInfo
}

// New returns an empty profile.
func New(app, classifier string) *Profile {
	return &Profile{App: app, Classifier: classifier}
}

// push appends v to s, giving an empty s room for four at once: a small
// profile's tables then grow in one allocation, not three.
func push[T any](s []T, v T) []T {
	if cap(s) == 0 {
		s = make([]T, 0, 4)
	}
	return append(s, v)
}

// chunks hands out zero values that never move: it allocates them a chunk
// at a time, each chunk as large as all before it, from 4 up to 256.
type chunks[T any] struct {
	free []T
	n    int // values handed out
}

// next returns a fresh zero value.
func (c *chunks[T]) next() *T {
	if len(c.free) == 0 {
		c.free = make([]T, min(max(c.n, 4), 256))
	}
	v := &c.free[0]
	c.free = c.free[1:]
	c.n++
	return v
}

// slots returns an empty histogram with room for two buckets, carved from
// the profile's slab with a full slice expression, so that appending a
// third bucket moves the histogram out instead of writing into the next
// histogram's slots. Profiling the paper's three applications, about two
// of three edge directions hold one bucket and all but 16 of 9,092 at
// most two.
func (p *Profile) slots() BucketCounts {
	if len(p.slab) < 2 {
		p.slab = make([]Bucket, min(max(4*len(p.Edges), 8), 1024))
	}
	h := p.slab[:0:2]
	p.slab = p.slab[2:]
	return h
}

// Number returns the classification number of name, numbering it if new.
func (p *Profile) Number(name string) int32 {
	if n, ok := p.numbers[name]; ok {
		return n
	}
	if p.numbers == nil {
		p.numbers = make(map[string]int32)
	}
	n := int32(len(p.names))
	p.names = push(p.names, named{name: name})
	p.numbers[name] = n
	return n
}

// Name returns the name of classification number n.
func (p *Profile) Name(n int32) string { return p.names[n].name }

// Numbered returns how many classification names the profile numbers:
// every number is in [0, Numbered()).
func (p *Profile) Numbered() int { return len(p.names) }

// Classification returns the named instance classification, or nil when
// the profile observed no instance of it.
func (p *Profile) Classification(name string) *ClassificationInfo {
	if n, ok := p.numbers[name]; ok {
		return p.names[n].info
	}
	return nil
}

// ClassificationOf returns the instance classification numbered n, or nil
// when the profile observed no instance of it (the main program, say).
func (p *Profile) ClassificationOf(n int32) *ClassificationInfo { return p.names[n].info }

// ClassOf returns the class of classification number n: "" for the main
// program and any classification with no instance in the profile.
func (p *Profile) ClassOf(n int32) string {
	if ci := p.names[n].info; ci != nil {
		return ci.Class
	}
	return ""
}

// key is the index key of a pair of numbers: an edge's endpoints, or a
// method's classification and name.
func key(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// EdgeOf returns the (created-on-demand) summary for the ordered pair of
// classification numbers: one integer-keyed lookup.
func (p *Profile) EdgeOf(src, dst int32) *EdgeSummary {
	k := key(src, dst)
	if i, ok := p.edgeAt[k]; ok {
		return &p.Edges[i].EdgeSummary
	}
	if p.edgeAt == nil {
		p.edgeAt = make(map[uint64]int32)
	}
	e := p.pairs.next()
	e.Src, e.Dst = src, dst
	e.In, e.Out = p.slots(), p.slots()
	p.edgeAt[k] = int32(len(p.Edges))
	p.Edges = push(p.Edges, e)
	return &e.EdgeSummary
}

// Edge returns the (created-on-demand) summary for the ordered pair of
// named classifications.
func (p *Profile) Edge(src, dst string) *EdgeSummary {
	return p.EdgeOf(p.Number(src), p.Number(dst))
}

// MethodNumber returns the number of a method name, numbering it if new.
func (p *Profile) MethodNumber(name string) int32 {
	if n, ok := p.methodNumbers[name]; ok {
		return n
	}
	if p.methodNumbers == nil {
		p.methodNumbers = make(map[string]int32)
	}
	n := int32(len(p.methodNames))
	p.methodNames = push(p.methodNames, name)
	p.methodNumbers[name] = n
	return n
}

// MethodOf returns the (created-on-demand) statistics of method number
// method of classification number classification: one integer-keyed
// lookup.
func (p *Profile) MethodOf(classification, method int32) *MethodStats {
	k := key(classification, method)
	if i, ok := p.methodAt[k]; ok {
		return p.Methods[i]
	}
	if p.methodAt == nil {
		p.methodAt = make(map[uint64]int32)
	}
	m := p.stats.next()
	m.Classification, m.Method = classification, p.methodNames[method]
	p.methodAt[k] = int32(len(p.Methods))
	p.Methods = push(p.Methods, m)
	return m
}

// Method returns the (created-on-demand) per-method statistics for the
// given classification and method name.
func (p *Profile) Method(classification, method string) *MethodStats {
	return p.MethodOf(p.Number(classification), p.MethodNumber(method))
}

// AddInstance counts an instantiation of class under the named
// classification, activated along path (see ClassificationInfo.Path), and
// returns the classification's number.
func (p *Profile) AddInstance(classification, class string, path []string) int32 {
	n := p.Number(classification)
	ci := p.names[n].info
	if ci == nil {
		ci = p.addClassification(n, ClassificationInfo{ID: classification, Class: class})
	}
	if ci.Path == nil && len(path) > 0 {
		ci.Path = path // shared: a recorded path is immutable
	}
	ci.Instances++
	return n
}

// addClassification lists ci as classification number n and returns the
// profile's entry.
func (p *Profile) addClassification(n int32, ci ClassificationInfo) *ClassificationInfo {
	c := p.classes.next()
	*c = ci
	p.names[n].info = c
	p.Classifications = push(p.Classifications, c)
	return c
}

// Merge folds other into p: edges and classification counts accumulate,
// scenario lists concatenate. The two profiles number their
// classifications apart, so other's entries are joined to p's by name,
// once per distinct name. other is not modified.
func (p *Profile) Merge(other *Profile) error {
	if p.Classifier != other.Classifier {
		return fmt.Errorf("profile: cannot merge %s profile into %s profile",
			other.Classifier, p.Classifier)
	}
	if p.App != other.App {
		return fmt.Errorf("profile: cannot merge %s profile into %s profile", other.App, p.App)
	}
	p.Scenarios = append(p.Scenarios, other.Scenarios...)
	num := make([]int32, len(other.names))
	for i, c := range other.names {
		num[i] = p.Number(c.name)
	}
	for _, e := range other.Edges {
		p.EdgeOf(num[e.Src], num[e.Dst]).Merge(&e.EdgeSummary)
	}
	for _, ci := range other.Classifications {
		n := p.Number(ci.ID)
		mine := p.names[n].info
		if mine == nil {
			p.addClassification(n, ClassificationInfo{
				ID: ci.ID, Class: ci.Class, Instances: ci.Instances,
				Path: append([]string(nil), ci.Path...),
			})
		} else {
			mine.Instances += ci.Instances
			if mine.Path == nil && len(ci.Path) > 0 {
				mine.Path = append([]string(nil), ci.Path...)
			}
		}
	}
	for _, m := range other.Methods {
		p.MethodOf(num[m.Classification], p.MethodNumber(m.Method)).Merge(m)
	}
	p.Sort()
	return nil
}

// Sort puts the tables in name order, in place: Classifications by id,
// Edges by source and then destination name, Methods by classification
// and then method name. Numbers do not change, and the indexes are
// refilled rather than remade. Every producer hands its profile out
// sorted (the trace fold at a run's end, Merge and Decode), so readers
// range the tables as they are.
func (p *Profile) Sort() {
	slices.SortFunc(p.Classifications, func(a, b *ClassificationInfo) int {
		return strings.Compare(a.ID, b.ID)
	})
	slices.SortFunc(p.Edges, func(a, b *Pair) int {
		if c := strings.Compare(p.Name(a.Src), p.Name(b.Src)); c != 0 {
			return c
		}
		return strings.Compare(p.Name(a.Dst), p.Name(b.Dst))
	})
	slices.SortFunc(p.Methods, func(a, b *MethodStats) int {
		if c := strings.Compare(p.Name(a.Classification), p.Name(b.Classification)); c != 0 {
			return c
		}
		return strings.Compare(a.Method, b.Method)
	})
	clear(p.edgeAt)
	for i, e := range p.Edges {
		p.edgeAt[key(e.Src, e.Dst)] = int32(i)
	}
	clear(p.methodAt)
	for i, m := range p.Methods {
		p.methodAt[key(m.Classification, p.methodNumbers[m.Method])] = int32(i)
	}
}

// TotalCalls returns the number of inter-component calls summarized.
func (p *Profile) TotalCalls() int64 {
	var t int64
	for _, e := range p.Edges {
		t += e.Calls
	}
	return t
}
