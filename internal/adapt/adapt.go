// Package adapt implements the paper's envisioned "fully automatic"
// distribution optimization (§6): the lightweight version of the runtime,
// which relocates component instantiation requests to produce the chosen
// distribution, additionally counts messages between classifications with
// only slight overhead. Run-time message counts are compared with the
// related message counts from the profiling scenarios to recognize changes
// in application usage; when usage differs significantly from the profiled
// scenarios, Coign silently re-enables profiling to re-optimize the
// distribution.
//
// The run-time counts are the edge call counts of the profile the
// information logger folds from a distributed run it records (dist.Config's
// Trace): the same per-classification-pair Calls a profiling run's edges
// carry, so both sides of the comparison come from one fold.
package adapt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/profile"
)

// Drift quantifies how far observed run-time message counts diverge from a
// profile's, as 1 minus the cosine similarity between the two profiles'
// edge call counts over classification pairs (0 = identical usage mix, 1 =
// nothing in common). Comparing *mixes* rather than magnitudes keeps the
// metric independent of how long the application has been running.
func Drift(profiled, observed *profile.Profile) float64 {
	var dot, na, nb float64
	for _, j := range join(profiled, observed) {
		p, o := float64(j.profiled), float64(j.observed)
		na += p * p
		nb += o * o
		dot += p * o
	}
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/(math.Sqrt(na)*math.Sqrt(nb))
}

// pairCalls is one classification pair's edge calls in a profile and in
// the observed runs.
type pairCalls struct {
	src, dst           string
	profiled, observed int64
}

// join lists every classification pair either profile has an edge for,
// with its calls in each. The two profiles number their classifications
// apart, so the join goes by the endpoints' names, once per edge.
func join(profiled, observed *profile.Profile) []pairCalls {
	out := make([]pairCalls, 0, len(profiled.Edges))
	at := make(map[[2]string]int, len(profiled.Edges))
	for _, e := range profiled.Edges {
		k := [2]string{profiled.Name(e.Src), profiled.Name(e.Dst)}
		at[k] = len(out)
		out = append(out, pairCalls{src: k[0], dst: k[1], profiled: e.Calls})
	}
	for _, o := range observed.Edges {
		k := [2]string{observed.Name(o.Src), observed.Name(o.Dst)}
		if i, ok := at[k]; ok {
			out[i].observed = o.Calls
			continue
		}
		out = append(out, pairCalls{src: k[0], dst: k[1], observed: o.Calls})
	}
	return out
}

// Watchdog accumulates run-time counts and decides when the application's
// usage has drifted far enough from the profiled scenarios that
// re-profiling (and re-partitioning) is warranted.
type Watchdog struct {
	Profile   *profile.Profile
	Threshold float64 // drift above this recommends re-profiling
	MinCalls  int64   // ignore drift until this many calls observed
	observed  *profile.Profile
}

// NewWatchdog returns a watchdog over the profile the current distribution
// was computed from. A threshold around 0.3 distinguishes workload shifts
// from run-to-run noise; MinCalls suppresses verdicts on tiny samples.
func NewWatchdog(p *profile.Profile, threshold float64, minCalls int64) (*Watchdog, error) {
	if p == nil {
		return nil, fmt.Errorf("adapt: watchdog requires the profiled baseline")
	}
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("adapt: threshold %v outside (0,1)", threshold)
	}
	return &Watchdog{
		Profile:   p,
		Threshold: threshold,
		MinCalls:  minCalls,
		observed:  profile.New(p.App, p.Classifier),
	}, nil
}

// Observe adds the profile folded from one distributed run to the observed
// usage. The run must be of the profiled application under the profiled
// classifier: only then do its classification pairs name the profile's.
func (w *Watchdog) Observe(run *profile.Profile) error {
	return w.observed.Merge(run)
}

// Drift returns the current divergence from the profiled usage.
func (w *Watchdog) Drift() float64 {
	return Drift(w.Profile, w.observed)
}

// ShouldReprofile reports whether observed usage has drifted beyond the
// threshold (with enough evidence).
func (w *Watchdog) ShouldReprofile() bool {
	if w.observed.TotalCalls() < w.MinCalls {
		return false
	}
	return w.Drift() > w.Threshold
}

// Divergence is one classification pair's share of the calls in the
// profile and in the observed run.
type Divergence struct {
	Src, Dst      string
	ProfiledShare float64
	ObservedShare float64
}

// TopDivergences lists up to n classification pairs contributing most to
// the drift: the edges whose observed share differs most from their
// profiled share, ordered by absolute share difference.
func (w *Watchdog) TopDivergences(n int) []Divergence {
	pairs := join(w.Profile, w.observed)
	var profTotal, obsTotal float64
	for _, j := range pairs {
		profTotal += float64(j.profiled)
		obsTotal += float64(j.observed)
	}
	out := make([]Divergence, 0, len(pairs))
	for _, j := range pairs {
		var ps, os float64
		if profTotal > 0 {
			ps = float64(j.profiled) / profTotal
		}
		if obsTotal > 0 {
			os = float64(j.observed) / obsTotal
		}
		out = append(out, Divergence{Src: j.src, Dst: j.dst, ProfiledShare: ps, ObservedShare: os})
	}
	sort.Slice(out, func(i, j int) bool {
		di := math.Abs(out[i].ObservedShare - out[i].ProfiledShare)
		dj := math.Abs(out[j].ObservedShare - out[j].ProfiledShare)
		if di != dj {
			return di > dj
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
