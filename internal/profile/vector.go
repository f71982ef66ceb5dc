package profile

import "math"

// Vector is an instance communication vector (paper §4.2): one dimension
// per peer classification, each quantifying the communication time the
// instance would spend with that peer if the peer were located remotely.
// A profile holds no instances: classifier evaluation builds the vectors
// from stored event traces (analysis.EvaluateClassifier).
type Vector map[string]float64

// Correlation compares two communication vectors with the normalized dot
// product. 1 means equivalent communication behaviour (same peers in the
// same proportions); 0 means no shared behaviour. Two empty vectors — both
// silent instances — correlate perfectly.
func Correlation(a, b Vector) float64 {
	na, nb := a.norm(), b.norm()
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	var dot float64
	for k, av := range a {
		if bv, ok := b[k]; ok {
			dot += av * bv
		}
	}
	return dot / (na * nb)
}

func (v Vector) norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Add accumulates other into v.
func (v Vector) Add(other Vector) {
	for k, x := range other {
		v[k] += x
	}
}

// Scale multiplies every component by f.
func (v Vector) Scale(f float64) {
	for k := range v {
		v[k] *= f
	}
}
