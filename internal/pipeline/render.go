package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// EncodeJSON writes the result's canonical JSON encoding: two-space
// indentation and a trailing newline. Every consumer — `coign run -json`,
// the job store, the service's result endpoint — uses this one encoder, so
// the same normalized spec always yields byte-identical output.
func EncodeJSON(w io.Writer, r *Result) error {
	b, err := MarshalResult(r)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// MarshalResult returns the canonical JSON bytes of a result.
func MarshalResult(r *Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, fmt.Errorf("pipeline: encoding result: %w", err)
	}
	return buf.Bytes(), nil
}

// WriteText renders the result for a terminal, mirroring the coign CLI's
// historical layout.
func (r *Result) WriteText(w io.Writer) error {
	spec := r.Spec
	what := strings.Join(spec.Scenarios, "+")
	if what == "" {
		what = spec.App // Analyze on logs that name no scenario
	}
	fmt.Fprintf(w, "%s on %s (%s classifier)\n", what, spec.Network, spec.Classifier)
	fmt.Fprintf(w, "  classifications: %d client, %d server (%d constrained, %d non-remotable edges)\n",
		r.Classifications.Client, r.Classifications.Server, r.Constrained, r.NonRemotableEdges)
	fmt.Fprintf(w, "  instances:       %d client, %d server\n", r.Instances.Client, r.Instances.Server)
	fmt.Fprintf(w, "  predicted comm:  %v (default %v, savings %.0f%%)\n",
		r.PredictedComm, r.DefaultComm, r.Savings*100)
	if r.CoverageCoLocations > 0 {
		fmt.Fprintf(w, "  coverage welds:  %d uncovered edges kept co-located\n", r.CoverageCoLocations)
	}
	if len(r.Replicated) > 0 {
		fmt.Fprintf(w, "  replicated:      %d components cloned (comm %v)\n", len(r.Replicated), r.ReplicatedComm)
	}
	if r.DefaultViolations > 0 {
		fmt.Fprintf(w, "  default infeasible: splits %d co-location constraint(s); default time is a lower bound\n",
			r.DefaultViolations)
	}
	if e := r.Experiment; e != nil {
		fmt.Fprintf(w, "  components:      %d total, %d on server\n", e.TotalInstances, e.ServerInstances)
		fmt.Fprintf(w, "  communication:   default %.3fs, Coign %.3fs (savings %.0f%%)\n",
			e.DefaultComm.Seconds(), e.CoignComm.Seconds(), e.Savings*100)
		fmt.Fprintf(w, "  execution:       predicted %.1fs, measured %.1fs (error %+.1f%%)\n",
			e.PredictedExec.Seconds(), e.MeasuredExec.Seconds(), e.PredictionErr*100)
		fmt.Fprintf(w, "  violations:      %d\n", e.Violations)
	}
	return nil
}

// WriteServerPlacements lists the server-side classes, the -v drill-down.
func (r *Result) WriteServerPlacements(w io.Writer) {
	for _, p := range r.ServerPlacements {
		fmt.Fprintf(w, "  server: %-20s x%d\n", p.Class, p.Instances)
	}
}
