// Package staticanal implements Coign's static binary analysis (paper §2):
// before any scenario executes, it scans application binary images and
// component metadata, classifies every interface signature as remotable,
// conditionally remotable, or non-remotable, and derives the location and
// pair-wise co-location constraints the graph-cutting algorithms must
// honor. The dynamic profile can then be cross-checked against the static
// prediction: an opaque-pointer transfer the static pass failed to predict
// is reported as a finding, never a crash.
package staticanal

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/binimg"
	"repro/internal/com"
)

// Report is the complete output of the static analyzer for one
// application binary: a summary of the image against the class registry,
// the interface classification, the derived constraint set, and any
// verifier findings accumulated by cross-checks.
type Report struct {
	App string `json:"app"`

	// Image summary. OrphanSections are code sections whose CLSID is not
	// in the class registry, and MissingFromImage the registered classes
	// with no code section; both sorted.
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

// Analyze runs the full static pipeline — join the image with the
// registries, classify, derive — over an application and its binary image.
// img may be nil: the original (un-instrumented) image is synthesized from
// the class registry, exactly what the rewriter would operate on. A
// malformed image is an error, never a panic.
func Analyze(app *com.App, img *binimg.Image) (*Report, error) {
	if app == nil {
		return nil, fmt.Errorf("staticanal: nil application")
	}
	if img == nil {
		img = binimg.BuildImage(app)
	}
	// Activation and state records belong to the reachability, purity and
	// alias analyses; here only code sections and unrecognized sections
	// count. A class without code and a section without a class are
	// recorded, not fatal.
	code, other, err := img.CodeSections()
	if err != nil {
		return nil, fmt.Errorf("staticanal: %w", err)
	}
	reports := ClassifyInterfaces(app.Interfaces)
	r := &Report{
		App:            img.AppName,
		Components:     app.Classes.Len(),
		Imports:        slices.Clone(img.Imports),
		Instrumented:   img.Instrumented(),
		OrphanSections: other,
		Constraints:    Derive(img.AppName, app.Classes, reports),
		Findings:       []Finding{},
	}
	for _, c := range app.Classes.Classes() {
		if _, ok := code[c.ID]; ok {
			r.ComponentsInImage++
			delete(code, c.ID)
		} else {
			r.MissingFromImage = append(r.MissingFromImage, c.Name)
		}
	}
	for clsid := range code {
		r.OrphanSections = append(r.OrphanSections, binimg.CodePrefix+string(clsid))
	}
	sort.Strings(r.OrphanSections)
	sort.Strings(r.MissingFromImage)
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
