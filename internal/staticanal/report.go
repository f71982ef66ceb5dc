package staticanal

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/binimg"
	"repro/internal/com"
)

// Report is the complete output of the static analyzer for one
// application binary: the metadata model summary, the interface
// classification, the derived constraint set, and any verifier findings
// accumulated by cross-checks.
type Report struct {
	App string `json:"app"`

	// Model summary.
	Components        int      `json:"components"`
	ComponentsInImage int      `json:"componentsInImage"`
	Imports           []string `json:"imports,omitempty"`
	Instrumented      bool     `json:"instrumented"`
	OrphanSections    []string `json:"orphanSections,omitempty"`
	MissingFromImage  []string `json:"missingFromImage,omitempty"`

	// Interface classification, sorted by IID.
	Interfaces []*InterfaceReport `json:"interfaces"`

	// Constraints is the derived constraint set.
	Constraints *ConstraintSet `json:"constraints"`

	// Findings accumulates verifier output (cross-checks, cut checks).
	Findings []Finding `json:"findings"`
}

// Analyze runs the full static pipeline — scan, classify, derive — over
// an application and its binary image. img may be nil: the original
// (un-instrumented) image is synthesized from the class registry, exactly
// what the rewriter would operate on.
func Analyze(app *com.App, img *binimg.Image) (*Report, error) {
	if app == nil {
		return nil, fmt.Errorf("staticanal: nil application")
	}
	if img == nil {
		img = binimg.BuildImage(app)
	}
	m, err := ScanImage(img, app)
	if err != nil {
		return nil, err
	}
	reports := ClassifyInterfaces(m.Interfaces)
	cs := Derive(m, reports)

	r := &Report{
		App:              m.App,
		Components:       len(m.Components),
		Imports:          m.Imports,
		Instrumented:     m.Instrumented,
		OrphanSections:   m.OrphanSections,
		MissingFromImage: m.MissingFromImage,
		Constraints:      cs,
		Findings:         []Finding{},
	}
	for _, cm := range m.Components {
		if cm.InImage {
			r.ComponentsInImage++
		}
	}
	for _, ir := range reports {
		r.Interfaces = append(r.Interfaces, ir)
	}
	sort.Slice(r.Interfaces, func(i, j int) bool { return r.Interfaces[i].IID < r.Interfaces[j].IID })
	return r, nil
}

// CountByRemotability tallies the interface classification.
func (r *Report) CountByRemotability() (remotable, conditional, nonRemotable int) {
	for _, ir := range r.Interfaces {
		switch ir.Remotability {
		case NonRemotable:
			nonRemotable++
		case ConditionallyRemotable:
			conditional++
		default:
			remotable++
		}
	}
	return
}

// AddFindings appends verifier findings to the report.
func (r *Report) AddFindings(fs ...Finding) { r.Findings = append(r.Findings, fs...) }

// WriteText emits the human report.
func (r *Report) WriteText(w io.Writer) error {
	rem, cond, non := r.CountByRemotability()
	if _, err := fmt.Fprintf(w, "%s: %d components (%d in image), %d interfaces (%d remotable, %d conditional, %d non-remotable)\n",
		r.App, r.Components, r.ComponentsInImage, len(r.Interfaces), rem, cond, non); err != nil {
		return err
	}
	for _, s := range r.OrphanSections {
		fmt.Fprintf(w, "  orphan section: %s\n", s)
	}
	for _, c := range r.MissingFromImage {
		fmt.Fprintf(w, "  class missing from image: %s\n", c)
	}
	for _, ir := range r.Interfaces {
		if ir.Remotability == Remotable {
			continue
		}
		fmt.Fprintf(w, "  interface %-24s %s\n", ir.IID, ir.Remotability)
		for _, reason := range ir.Reasons {
			fmt.Fprintf(w, "      - %s\n", reason)
		}
	}

	pins := make([]Pin, 0, len(r.Constraints.Pins))
	for _, p := range r.Constraints.Pins {
		pins = append(pins, p)
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i].Class < pins[j].Class })
	fmt.Fprintf(w, "  constraints: %d pins, %d pair-wise\n", len(pins), len(r.Constraints.Pairs))
	for _, p := range pins {
		fmt.Fprintf(w, "    pin  %-24s -> %-6s (%s)\n", p.Class, p.Machine, p.Reason)
	}
	for _, pr := range r.Constraints.Pairs {
		fmt.Fprintf(w, "    pair %s <-> %s (%s)\n", pr.A, pr.B, pr.Reason)
	}

	if len(r.Findings) == 0 {
		_, err := fmt.Fprintf(w, "  verifier: no findings\n")
		return err
	}
	fmt.Fprintf(w, "  verifier: %d finding(s), %d error(s)\n", len(r.Findings), ErrorCount(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(w, "    %s\n", f)
	}
	return nil
}
