package analysis

import (
	"fmt"
	"slices"

	"repro/internal/logger"
	"repro/internal/netsim"
	"repro/internal/profile"
)

// Classifier evaluation (paper §4.2, Tables 2 and 3). The instance
// classifier must correlate profiled classifications with instantiation
// requests in later executions. We measure, for an evaluation run (the
// paper's bigone scenarios) against runs of the other scenarios: how many
// classifications profiling identified, how many instantiations in the
// evaluation run had classifications never profiled, the granularity
// (instances per classification), and the mean dot-product correlation
// between each evaluation instance's communication vector and its
// classification's profiled vector. A profile summarises per
// classification, so all of it is read from the runs' stored event traces
// (the event logger of paper §3.3).

// ClassifierEval is one row of Table 2 (or Table 3).
type ClassifierEval struct {
	Classifier string
	// Depth is the classifier's stack-walk depth (0 = complete), Table 3's
	// row key. Filled by core.ClassifierAccuracy.
	Depth                         int
	ProfiledClassifications       int
	NewClassifications            int
	AvgInstancesPerClassification float64
	AvgCorrelation                float64
}

// EvaluateClassifier compares an evaluation run against the runs of the
// profiling scenarios. Each run is a trace that stored its events
// (logger.NewTrace), and all were profiled under one classifier, which
// each trace's profile names.
func EvaluateClassifier(training []*logger.Trace, eval *logger.Trace, np *netsim.Profile) (*ClassifierEval, error) {
	if len(training) == 0 {
		return nil, fmt.Errorf("analysis: classifier evaluation needs a profiling run")
	}
	classifier := ""
	for i, tr := range append(slices.Clip(training), eval) {
		if tr == nil || tr.Len() == 0 || tr.Profile() == nil {
			return nil, fmt.Errorf("analysis: classifier evaluation reads stored events, and run %d stored none", i)
		}
		if i == 0 {
			classifier = tr.Profile().Classifier
		} else if c := tr.Profile().Classifier; c != classifier {
			return nil, fmt.Errorf("analysis: runs from different classifiers (%s vs %s)", classifier, c)
		}
	}
	profiled, total := classificationVectors(training, np)
	res := &ClassifierEval{Classifier: classifier, ProfiledClassifications: len(profiled)}
	if len(profiled) > 0 {
		res.AvgInstancesPerClassification = float64(total) / float64(len(profiled))
	}
	fresh := make(map[string]bool)
	var sum float64
	evaluated := instances(eval, np)
	for _, in := range evaluated {
		pv, ok := profiled[in.classification]
		if !ok {
			// Never-profiled classification: the factory has no basis to
			// predict its behaviour. Contributes zero correlation.
			fresh[in.classification] = true
			continue
		}
		sum += profile.Correlation(in.vec, pv)
	}
	res.NewClassifications = len(fresh)
	if len(evaluated) > 0 {
		res.AvgCorrelation = sum / float64(len(evaluated))
	}
	return res, nil
}

// classificationVectors returns the profiled vector of every
// classification the runs of training instantiated, the mean of its
// instances' vectors, and how many instances the runs hold.
func classificationVectors(training []*logger.Trace, np *netsim.Profile) (map[string]profile.Vector, int) {
	sums := make(map[string]profile.Vector)
	counts := make(map[string]int)
	var total int
	for _, tr := range training {
		for _, in := range instances(tr, np) {
			s := sums[in.classification]
			if s == nil {
				s = make(profile.Vector)
				sums[in.classification] = s
			}
			s.Add(in.vec)
			counts[in.classification]++
			total++
		}
	}
	for c, s := range sums {
		if n := counts[c]; n > 1 {
			s.Scale(1 / float64(n))
		}
	}
	return sums, total
}

// instance is one instantiation read back from a stored trace: its
// classification and its communication vector.
type instance struct {
	classification string
	vec            profile.Vector
}

// instances returns every instance the runs of tr instantiated, in
// order, each with its communication vector (paper §4.2): per peer
// classification, the time the instance's calls with that peer would
// take were the peer remote. Communication is mutual, so a call counts
// for both endpoints, each against the other's classification. Each of a
// call's two messages is priced at its size bucket's representative, as
// profile.EdgeSummary.Time prices an edge. The main program is the peer
// profile.MainProgram and has no vector of its own; a peer the run did
// not instantiate is the peer "". Instance ids restart every run, so an
// id is looked up in its own run only.
func instances(tr *logger.Trace, np *netsim.Profile) []instance {
	var out []instance
	at := make(map[uint64]int) // id -> index in out, in the open run
	open := false
	endpoint := func(id uint64) (int, string) {
		if id == 0 {
			return -1, profile.MainProgram
		}
		if i, ok := at[id]; ok {
			return i, out[i].classification
		}
		return -1, ""
	}
	for i := 0; i < tr.Len(); i++ {
		ev := tr.At(i)
		switch {
		case ev.Kind == logger.EvBegin:
			clear(at)
			open = true
		case ev.Kind == logger.EvEnd:
			open = false
		case !open:
		case ev.Kind == logger.EvInstantiation:
			at[ev.Inst.ID] = len(out)
			out = append(out, instance{ev.Inst.Classification, make(profile.Vector)})
		case ev.Kind == logger.EvCall:
			t := float64(profile.BucketTime(np, profile.BucketIndex(ev.Call.InBytes)) +
				profile.BucketTime(np, profile.BucketIndex(ev.Call.OutBytes)))
			src, srcClass := endpoint(ev.Call.SrcInst)
			dst, dstClass := endpoint(ev.Call.DstInst)
			if src >= 0 {
				out[src].vec[dstClass] += t
			}
			if dst >= 0 {
				out[dst].vec[srcClass] += t
			}
		}
	}
	return out
}
