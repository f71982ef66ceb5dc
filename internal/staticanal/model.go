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
	"sort"

	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/idl"
)

// ComponentMeta is the static view of one component class, assembled from
// the class registry and the binary image's sections.
type ComponentMeta struct {
	Name           string      `json:"name"`
	CLSID          com.CLSID   `json:"clsid"`
	Interfaces     []string    `json:"interfaces,omitempty"`
	APIs           []string    `json:"apis,omitempty"`
	SectionBytes   int         `json:"sectionBytes"`
	InImage        bool        `json:"inImage"`
	Infrastructure bool        `json:"infrastructure,omitempty"`
	Home           com.Machine `json:"home"`
}

// Model is the component/interface metadata model built by the scanner:
// the first pass of the static analyzer.
type Model struct {
	App          string   `json:"app"`
	Imports      []string `json:"imports,omitempty"`
	Instrumented bool     `json:"instrumented"`
	Mode         string   `json:"mode,omitempty"`

	// Components lists every known class, sorted by name.
	Components []*ComponentMeta `json:"components"`
	// OrphanSections are component code sections whose CLSID is not in the
	// class registry.
	OrphanSections []string `json:"orphanSections,omitempty"`
	// MissingFromImage are registered classes with no code section.
	MissingFromImage []string `json:"missingFromImage,omitempty"`

	// Interfaces is the interface metadata the analyzer will classify,
	// the application's registry.
	Interfaces *idl.Registry `json:"-"`

	byName map[string]*ComponentMeta
}

// Component returns the metadata for a class name, or nil.
func (m *Model) Component(name string) *ComponentMeta { return m.byName[name] }

// ScanImage builds the metadata model from a binary image and the
// application's class and interface registries. Malformed images produce
// errors, never panics.
func ScanImage(img *binimg.Image, app *com.App) (*Model, error) {
	if img == nil || app == nil {
		return nil, fmt.Errorf("staticanal: nil image or application")
	}
	m := &Model{
		App:          img.AppName,
		Imports:      append([]string(nil), img.Imports...),
		Instrumented: img.Instrumented(),
		byName:       make(map[string]*ComponentMeta),
	}
	if img.Config != nil {
		m.Mode = string(img.Config.Mode)
	}

	// Activation and state records belong to the reachability, purity and
	// alias analyses; here only code sizes and unrecognized sections count.
	sectionSize, other, err := img.CodeSections()
	if err != nil {
		return nil, fmt.Errorf("staticanal: %w", err)
	}
	m.OrphanSections = other

	for _, c := range app.Classes.Classes() {
		cm := &ComponentMeta{
			Name:           c.Name,
			CLSID:          c.ID,
			Interfaces:     append([]string(nil), c.Interfaces...),
			APIs:           append([]string(nil), c.APIs...),
			Infrastructure: c.Infrastructure,
			Home:           c.Home,
		}
		if size, ok := sectionSize[c.ID]; ok {
			cm.InImage = true
			cm.SectionBytes = size
			delete(sectionSize, c.ID)
		} else {
			m.MissingFromImage = append(m.MissingFromImage, c.Name)
		}
		m.Components = append(m.Components, cm)
		m.byName[c.Name] = cm
	}
	for clsid := range sectionSize {
		m.OrphanSections = append(m.OrphanSections, binimg.CodePrefix+string(clsid))
	}
	sort.Slice(m.Components, func(i, j int) bool { return m.Components[i].Name < m.Components[j].Name })
	sort.Strings(m.OrphanSections)
	sort.Strings(m.MissingFromImage)

	m.Interfaces = app.Interfaces
	return m, nil
}
