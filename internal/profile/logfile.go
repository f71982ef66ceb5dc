package profile

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
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
}

// legacyForm is what logs written before a profile dropped per-instance
// detail hold beside a fileForm: one record per instantiation and one
// summary per ordered instance pair. Decode reads the two members only to
// refuse what it refused when they were part of a profile, and drops them.
type legacyForm struct {
	Instances []struct {
		ID                                           uint64
		Class, Classification, CreatorClassification string
		Order                                        int
		Path                                         []string
	} `json:"instances"`
	Pairs []struct {
		Src uint64 `json:"src"`
		Dst uint64 `json:"dst"`
		summaryForm
	} `json:"instEdges"`
}

// form returns e as the log holds it.
func (e *EdgeSummary) form() summaryForm {
	return summaryForm{Calls: e.Calls, In: e.In.form(), Out: e.Out.form(),
		ExactIn: e.ExactInBytes, ExactOut: e.ExactOutBytes, NonRemotable: e.NonRemotable}
}

// form returns b as the log holds it: a map from bucket to count, nil
// when b is empty.
func (b BucketCounts) form() map[int]int64 {
	if len(b) == 0 {
		return nil
	}
	m := make(map[int]int64, len(b))
	for _, x := range b {
		m[x.Index] = x.Count
	}
	return m
}

// fill sets e, a fresh summary, to the summary f holds, refusing one that
// Record and Merge could not have produced: a bucket index outside [0,
// NumBuckets), a negative count or byte total, or a call count other than
// the request and the reply histograms' totals.
func (f *summaryForm) fill(e *EdgeSummary) error {
	if f.Calls < 0 || f.ExactIn < 0 || f.ExactOut < 0 {
		return fmt.Errorf("negative count or byte total (calls %d, bytes %d in, %d out)", f.Calls, f.ExactIn, f.ExactOut)
	}
	e.Calls, e.ExactInBytes, e.ExactOutBytes, e.NonRemotable = f.Calls, f.ExactIn, f.ExactOut, f.NonRemotable
	for _, h := range []struct {
		m map[int]int64
		b *BucketCounts
	}{{f.In, &e.In}, {f.Out, &e.Out}} {
		for idx, n := range h.m {
			*h.b = append(*h.b, Bucket{Index: idx, Count: n})
		}
		slices.SortFunc(*h.b, func(x, y Bucket) int { return cmp.Compare(x.Index, y.Index) })
		var total int64
		for _, x := range *h.b {
			if x.Index < 0 || x.Index >= NumBuckets {
				return fmt.Errorf("bucket %d outside [0, %d)", x.Index, NumBuckets)
			}
			if x.Count < 0 || x.Count > math.MaxInt64-total {
				return fmt.Errorf("bucket %d holds %d messages", x.Index, x.Count)
			}
			total += x.Count
		}
		if total != f.Calls {
			return fmt.Errorf("%d calls, but a histogram holds %d messages", f.Calls, total)
		}
	}
	return nil
}

// Encode writes the profile as JSON, its tables in the name order every
// producer leaves them in (Sort).
func (p *Profile) Encode(w io.Writer) error {
	f := fileForm{
		App:        p.App,
		Classifier: p.Classifier,
		Scenarios:  p.Scenarios,
	}
	for _, e := range p.Edges {
		f.Edges = append(f.Edges, edgeForm{Src: p.Name(e.Src), Dst: p.Name(e.Dst), summaryForm: e.form()})
	}
	for _, ci := range p.Classifications {
		f.Classifications = append(f.Classifications, *ci)
	}
	for _, m := range p.Methods {
		f.Methods = append(f.Methods, methodForm{
			Classification: p.Name(m.Classification), Method: m.Method,
			Calls: m.Calls, Writes: m.Writes,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// Decode reads a profile previously written by Encode. A log is read from
// disk, so Decode holds it to what Encode writes: every edge summary as
// EdgeSummary.Record and Merge keep one (see summaryForm.fill), no
// negative method or instance count, and no edge, method or
// classification listed twice. The log names classifications; Decode
// numbers each name once. A log of the older format reads as the profile
// it holds, its per-instance members checked and dropped (legacyForm).
func Decode(r io.Reader) (*Profile, error) {
	var f struct {
		fileForm
		legacyForm
	}
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	p := New(f.App, f.Classifier)
	p.Scenarios = f.Scenarios
	for _, ef := range f.Edges {
		n := len(p.Edges)
		e := p.Edge(ef.Src, ef.Dst)
		if len(p.Edges) == n {
			return nil, fmt.Errorf("profile: decode: edge %s -> %s listed twice", ef.Src, ef.Dst)
		}
		if err := ef.fill(e); err != nil {
			return nil, fmt.Errorf("profile: decode: edge %s -> %s: %w", ef.Src, ef.Dst, err)
		}
	}
	for _, ci := range f.Classifications {
		n := p.Number(ci.ID)
		if p.ClassificationOf(n) != nil {
			return nil, fmt.Errorf("profile: decode: classification %s listed twice", ci.ID)
		}
		if ci.Instances < 0 {
			return nil, fmt.Errorf("profile: decode: classification %s: %d instances", ci.ID, ci.Instances)
		}
		p.addClassification(n, ci)
	}
	for _, mf := range f.Methods {
		n := len(p.Methods)
		m := p.Method(mf.Classification, mf.Method)
		if len(p.Methods) == n {
			return nil, fmt.Errorf("profile: decode: method %s of %s listed twice", mf.Method, mf.Classification)
		}
		if mf.Calls < 0 || mf.Writes < 0 {
			return nil, fmt.Errorf("profile: decode: method %s of %s: %d calls, %d writes", mf.Method, mf.Classification, mf.Calls, mf.Writes)
		}
		m.Calls, m.Writes = mf.Calls, mf.Writes
	}
	for _, ef := range f.Pairs {
		if err := ef.fill(new(EdgeSummary)); err != nil {
			return nil, fmt.Errorf("profile: decode: instance edge #%d -> #%d: %w", ef.Src, ef.Dst, err)
		}
	}
	p.Sort()
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
