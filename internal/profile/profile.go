package profile

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
)

// MainProgram is the classification id of the application's main program
// (the executable shell that drives components but is not itself a
// component). It is permanently constrained to the client.
const MainProgram = "<main>"

// PairKey identifies an ordered communication edge between two instance
// classifications.
type PairKey struct {
	Src string
	Dst string
}

// InstPairKey identifies an ordered communication edge between two
// concrete instances (instance-level detail, kept only when classifier
// evaluation needs it).
type InstPairKey struct {
	Src uint64
	Dst uint64
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

// NewEdgeSummary returns an empty summary.
func NewEdgeSummary() *EdgeSummary {
	return &EdgeSummary{In: make(BucketCounts), Out: make(BucketCounts)}
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

// Time prices the edge under a network profile using bucket
// representatives: the cost of all calls if the endpoints were on opposite
// machines.
func (e *EdgeSummary) Time(np *netsim.Profile) time.Duration {
	var t time.Duration
	for idx, n := range e.In {
		t += time.Duration(n) * np.MessageTime(BucketRepresentative(idx))
	}
	for idx, n := range e.Out {
		t += time.Duration(n) * np.MessageTime(BucketRepresentative(idx))
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

// InstanceRecord describes one component instantiation observed during a
// run.
type InstanceRecord struct {
	ID                    uint64
	Class                 string
	Classification        string
	CreatorClassification string
	Order                 int
	// Path is the activation call path: the classes of the component
	// instances on the stack at the instantiation, innermost first (empty
	// when the main program activated directly). The reachability coverage
	// analysis joins it against static activation sites. Records and
	// classifications share paths, so a path is never written into.
	Path []string
}

// ClassificationInfo aggregates the instances grouped under one
// classification.
type ClassificationInfo struct {
	ID        string
	Class     string
	Instances int64
	// Path is the activation call path observed at the classification's
	// first instantiation (see InstanceRecord.Path), shared with that
	// record.
	Path []string
}

// MethodKey identifies one method of one instance classification, the
// granularity at which mutation evidence is aggregated.
type MethodKey struct {
	Classification string
	Method         string
}

// MethodStats aggregates per-method call and state-mutation counts — the
// profile evidence the purity analysis folds into component grading and
// the purity verifier diffs against static read-only claims.
type MethodStats struct {
	Calls  int64
	Writes int64
}

// Merge folds other into m.
func (m *MethodStats) Merge(other *MethodStats) {
	m.Calls += other.Calls
	m.Writes += other.Writes
}

// Profile is a complete ICC profile: the output of one or more profiling
// runs under a given classifier.
type Profile struct {
	App        string
	Scenarios  []string
	Classifier string

	// Edges aggregates communication between classifications.
	Edges map[PairKey]*EdgeSummary
	// Classifications indexes the instance classifications observed.
	Classifications map[string]*ClassificationInfo
	// Methods aggregates per-method call and mutation counts.
	Methods map[MethodKey]*MethodStats
	// Instances holds per-instance records (optional detail).
	Instances []InstanceRecord
	// InstEdges aggregates communication between concrete instances
	// (optional detail for classifier evaluation).
	InstEdges map[InstPairKey]*EdgeSummary
}

// New returns an empty profile.
func New(app, classifier string) *Profile {
	return &Profile{
		App:             app,
		Classifier:      classifier,
		Edges:           make(map[PairKey]*EdgeSummary),
		Classifications: make(map[string]*ClassificationInfo),
		Methods:         make(map[MethodKey]*MethodStats),
		InstEdges:       make(map[InstPairKey]*EdgeSummary),
	}
}

// Edge returns the (created-on-demand) summary for the ordered pair.
func (p *Profile) Edge(src, dst string) *EdgeSummary {
	k := PairKey{src, dst}
	e := p.Edges[k]
	if e == nil {
		e = NewEdgeSummary()
		p.Edges[k] = e
	}
	return e
}

// Method returns the (created-on-demand) per-method statistics for the
// given classification and method name.
func (p *Profile) Method(classification, method string) *MethodStats {
	k := MethodKey{classification, method}
	m := p.Methods[k]
	if m == nil {
		m = &MethodStats{}
		p.Methods[k] = m
	}
	return m
}

// InstEdge returns the (created-on-demand) instance-level summary.
func (p *Profile) InstEdge(src, dst uint64) *EdgeSummary {
	k := InstPairKey{src, dst}
	e := p.InstEdges[k]
	if e == nil {
		e = NewEdgeSummary()
		p.InstEdges[k] = e
	}
	return e
}

// AddInstance records an instantiation under the given classification.
func (p *Profile) AddInstance(rec InstanceRecord) {
	p.Instances = append(p.Instances, rec)
	ci := p.Classifications[rec.Classification]
	if ci == nil {
		ci = &ClassificationInfo{ID: rec.Classification, Class: rec.Class}
		p.Classifications[rec.Classification] = ci
	}
	if ci.Path == nil && len(rec.Path) > 0 {
		ci.Path = rec.Path // shared: a recorded path is immutable
	}
	ci.Instances++
}

// Merge folds other into p: edges and classification counts accumulate,
// scenario lists concatenate. Instance ids restart every execution, so
// other's concrete ids are shifted past p's largest (the main program, id
// 0, stays fixed): per-instance detail from separate runs stays distinct
// and communication vectors stay per-instance. other is not modified.
func (p *Profile) Merge(other *Profile) error {
	if p.Classifier != other.Classifier {
		return fmt.Errorf("profile: cannot merge %s profile into %s profile",
			other.Classifier, p.Classifier)
	}
	if p.App != other.App {
		return fmt.Errorf("profile: cannot merge %s profile into %s profile", other.App, p.App)
	}
	delta := p.maxInstanceID()
	shift := func(id uint64) uint64 {
		if id == 0 {
			return 0
		}
		return id + delta
	}
	p.Scenarios = append(p.Scenarios, other.Scenarios...)
	for k, e := range other.Edges {
		p.Edge(k.Src, k.Dst).Merge(e)
	}
	for id, ci := range other.Classifications {
		mine := p.Classifications[id]
		if mine == nil {
			p.Classifications[id] = &ClassificationInfo{
				ID: id, Class: ci.Class, Instances: ci.Instances,
				Path: append([]string(nil), ci.Path...),
			}
		} else {
			mine.Instances += ci.Instances
			if mine.Path == nil && len(ci.Path) > 0 {
				mine.Path = append([]string(nil), ci.Path...)
			}
		}
	}
	for k, m := range other.Methods {
		p.Method(k.Classification, k.Method).Merge(m)
	}
	for _, r := range other.Instances {
		r.ID = shift(r.ID)
		p.Instances = append(p.Instances, r)
	}
	for k, e := range other.InstEdges {
		p.InstEdge(shift(k.Src), shift(k.Dst)).Merge(e)
	}
	return nil
}

// TotalCalls returns the number of inter-component calls summarized.
func (p *Profile) TotalCalls() int64 {
	var t int64
	for _, e := range p.Edges {
		t += e.Calls
	}
	return t
}

// TotalInstances returns the number of instantiations recorded across
// classifications.
func (p *Profile) TotalInstances() int64 {
	var t int64
	for _, ci := range p.Classifications {
		t += ci.Instances
	}
	return t
}

// ClassificationIDs returns all classification ids sorted.
func (p *Profile) ClassificationIDs() []string {
	ids := make([]string, 0, len(p.Classifications))
	for id := range p.Classifications {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// maxInstanceID returns the largest concrete instance id recorded.
func (p *Profile) maxInstanceID() uint64 {
	var m uint64
	for _, r := range p.Instances {
		m = max(m, r.ID)
	}
	for k := range p.InstEdges {
		m = max(m, k.Src, k.Dst)
	}
	return m
}
