package analysis

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/profile"
)

// Classifier evaluation (paper §4.2, Tables 2 and 3). The instance
// classifier must correlate profiled classifications with instantiation
// requests in later executions. We measure, for an evaluation run (the
// paper's bigone scenarios) against profiles collected from the other
// scenarios: how many classifications profiling identified, how many
// instantiations in the evaluation run had classifications never profiled,
// the granularity (instances per classification), and the mean dot-product
// correlation between each evaluation instance's communication vector and
// its classification's profiled vector.

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

// EvaluateClassifier compares an evaluation profile against the combined
// profiled scenarios. Both must carry instance detail and come from the
// same classifier.
func EvaluateClassifier(profiled, eval *profile.Profile, np *netsim.Profile) (*ClassifierEval, error) {
	if profiled.Classifier != eval.Classifier {
		return nil, fmt.Errorf("analysis: profiles from different classifiers (%s vs %s)",
			profiled.Classifier, eval.Classifier)
	}
	if len(profiled.Instances) == 0 || len(eval.Instances) == 0 {
		return nil, fmt.Errorf("analysis: classifier evaluation requires instance detail")
	}
	res := &ClassifierEval{
		Classifier:              profiled.Classifier,
		ProfiledClassifications: len(profiled.Classifications),
	}
	if n := len(profiled.Classifications); n > 0 {
		res.AvgInstancesPerClassification = float64(profiled.TotalInstances()) / float64(n)
	}
	for _, ci := range eval.Classifications {
		if profiled.Classification(ci.ID) == nil {
			res.NewClassifications++
		}
	}

	profiledVecs := profiled.ClassificationVectors(np)
	evalVecs := eval.InstanceVectors(np)
	classOf := make(map[uint64]string, len(eval.Instances))
	for _, r := range eval.Instances {
		classOf[r.ID] = r.Classification
	}
	var sum float64
	var n int
	for instID, vec := range evalVecs {
		cid := classOf[instID]
		if cid == "" {
			continue
		}
		n++
		pv, ok := profiledVecs[cid]
		if !ok {
			// Never-profiled classification: the factory has no basis to
			// predict its behaviour. Contributes zero correlation.
			continue
		}
		sum += profile.Correlation(vec, pv)
	}
	if n > 0 {
		res.AvgCorrelation = sum / float64(n)
	}
	return res, nil
}
