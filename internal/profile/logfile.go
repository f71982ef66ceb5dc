package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Log file serialization. At the end of a profiling execution Coign writes
// the ICC profile to a file for later analysis; log files from multiple
// scenarios may be combined during analysis (paper §2). The format is
// line-oriented JSON of a stable, sorted mirror structure.

// summaryForm is an EdgeSummary as the log holds it.
type summaryForm struct {
	Calls        int64         `json:"calls"`
	In           map[int]int64 `json:"in,omitempty"`
	Out          map[int]int64 `json:"out,omitempty"`
	ExactIn      int64         `json:"exactIn"`
	ExactOut     int64         `json:"exactOut"`
	NonRemotable bool          `json:"nonRemotable,omitempty"`
}

type edgeForm struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	summaryForm
}

type instEdgeForm struct {
	Src uint64 `json:"src"`
	Dst uint64 `json:"dst"`
	summaryForm
}

type methodForm struct {
	Classification string `json:"classification"`
	Method         string `json:"method"`
	Calls          int64  `json:"calls"`
	Writes         int64  `json:"writes,omitempty"`
}

type fileForm struct {
	App             string               `json:"app"`
	Classifier      string               `json:"classifier"`
	Scenarios       []string             `json:"scenarios"`
	Edges           []edgeForm           `json:"edges"`
	Classifications []ClassificationInfo `json:"classifications"`
	Methods         []methodForm         `json:"methods,omitempty"`
	Instances       []InstanceRecord     `json:"instances,omitempty"`
	InstEdges       []instEdgeForm       `json:"instEdges,omitempty"`
}

// form returns e as the log holds it.
func (e *EdgeSummary) form() summaryForm {
	return summaryForm{Calls: e.Calls, In: e.In, Out: e.Out,
		ExactIn: e.ExactInBytes, ExactOut: e.ExactOutBytes, NonRemotable: e.NonRemotable}
}

// summary returns the EdgeSummary f holds, refusing one that Record and
// Merge could not have produced: a bucket index outside [0, NumBuckets), a
// negative count or byte total, or a call count other than the request
// and the reply histograms' totals.
func (f *summaryForm) summary() (*EdgeSummary, error) {
	e := &EdgeSummary{Calls: f.Calls, In: BucketCounts(f.In), Out: BucketCounts(f.Out),
		ExactInBytes: f.ExactIn, ExactOutBytes: f.ExactOut, NonRemotable: f.NonRemotable}
	if e.In == nil {
		e.In = make(BucketCounts)
	}
	if e.Out == nil {
		e.Out = make(BucketCounts)
	}
	if f.Calls < 0 || f.ExactIn < 0 || f.ExactOut < 0 {
		return nil, fmt.Errorf("negative count or byte total (calls %d, bytes %d in, %d out)", f.Calls, f.ExactIn, f.ExactOut)
	}
	for _, b := range []BucketCounts{e.In, e.Out} {
		var total int64
		for idx, n := range b {
			if idx < 0 || idx >= NumBuckets {
				return nil, fmt.Errorf("bucket %d outside [0, %d)", idx, NumBuckets)
			}
			if n < 0 || n > math.MaxInt64-total {
				return nil, fmt.Errorf("bucket %d holds %d messages", idx, n)
			}
			total += n
		}
		if total != f.Calls {
			return nil, fmt.Errorf("%d calls, but a histogram holds %d messages", f.Calls, total)
		}
	}
	return e, nil
}

// Encode writes the profile as JSON.
func (p *Profile) Encode(w io.Writer) error {
	f := fileForm{
		App:        p.App,
		Classifier: p.Classifier,
		Scenarios:  p.Scenarios,
	}
	for k, e := range p.Edges {
		f.Edges = append(f.Edges, edgeForm{Src: k.Src, Dst: k.Dst, summaryForm: e.form()})
	}
	sort.Slice(f.Edges, func(i, j int) bool {
		if f.Edges[i].Src != f.Edges[j].Src {
			return f.Edges[i].Src < f.Edges[j].Src
		}
		return f.Edges[i].Dst < f.Edges[j].Dst
	})
	for _, ci := range p.Classifications {
		f.Classifications = append(f.Classifications, *ci)
	}
	sort.Slice(f.Classifications, func(i, j int) bool {
		return f.Classifications[i].ID < f.Classifications[j].ID
	})
	for k, m := range p.Methods {
		f.Methods = append(f.Methods, methodForm{
			Classification: k.Classification, Method: k.Method,
			Calls: m.Calls, Writes: m.Writes,
		})
	}
	sort.Slice(f.Methods, func(i, j int) bool {
		if f.Methods[i].Classification != f.Methods[j].Classification {
			return f.Methods[i].Classification < f.Methods[j].Classification
		}
		return f.Methods[i].Method < f.Methods[j].Method
	})
	f.Instances = p.Instances
	for k, e := range p.InstEdges {
		f.InstEdges = append(f.InstEdges, instEdgeForm{Src: k.Src, Dst: k.Dst, summaryForm: e.form()})
	}
	sort.Slice(f.InstEdges, func(i, j int) bool {
		if f.InstEdges[i].Src != f.InstEdges[j].Src {
			return f.InstEdges[i].Src < f.InstEdges[j].Src
		}
		return f.InstEdges[i].Dst < f.InstEdges[j].Dst
	})
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// Decode reads a profile previously written by Encode. A log is read from
// disk, so Decode holds it to what Encode writes: every edge summary as
// EdgeSummary.Record and Merge keep one (see summaryForm.summary), no
// negative method or instance count, and no edge, method, classification
// or instance edge listed twice.
func Decode(r io.Reader) (*Profile, error) {
	var f fileForm
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	p := New(f.App, f.Classifier)
	p.Scenarios = f.Scenarios
	for _, ef := range f.Edges {
		k := PairKey{ef.Src, ef.Dst}
		if p.Edges[k] != nil {
			return nil, fmt.Errorf("profile: decode: edge %s -> %s listed twice", ef.Src, ef.Dst)
		}
		e, err := ef.summary()
		if err != nil {
			return nil, fmt.Errorf("profile: decode: edge %s -> %s: %w", ef.Src, ef.Dst, err)
		}
		p.Edges[k] = e
	}
	for _, ci := range f.Classifications {
		if p.Classifications[ci.ID] != nil {
			return nil, fmt.Errorf("profile: decode: classification %s listed twice", ci.ID)
		}
		if ci.Instances < 0 {
			return nil, fmt.Errorf("profile: decode: classification %s: %d instances", ci.ID, ci.Instances)
		}
		c := ci
		p.Classifications[ci.ID] = &c
	}
	for _, mf := range f.Methods {
		k := MethodKey{mf.Classification, mf.Method}
		if p.Methods[k] != nil {
			return nil, fmt.Errorf("profile: decode: method %s of %s listed twice", mf.Method, mf.Classification)
		}
		if mf.Calls < 0 || mf.Writes < 0 {
			return nil, fmt.Errorf("profile: decode: method %s of %s: %d calls, %d writes", mf.Method, mf.Classification, mf.Calls, mf.Writes)
		}
		p.Methods[k] = &MethodStats{Calls: mf.Calls, Writes: mf.Writes}
	}
	p.Instances = f.Instances
	for _, ef := range f.InstEdges {
		k := InstPairKey{ef.Src, ef.Dst}
		if p.InstEdges[k] != nil {
			return nil, fmt.Errorf("profile: decode: instance edge #%d -> #%d listed twice", ef.Src, ef.Dst)
		}
		e, err := ef.summary()
		if err != nil {
			return nil, fmt.Errorf("profile: decode: instance edge #%d -> #%d: %w", ef.Src, ef.Dst, err)
		}
		p.InstEdges[k] = e
	}
	return p, nil
}

// WriteFile writes the profile log to a file.
func (p *Profile) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.Encode(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile reads a profile log from a file.
func ReadFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
