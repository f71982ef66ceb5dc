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
	// class registry (or any section, when no registry is available).
	OrphanSections []string `json:"orphanSections,omitempty"`
	// MissingFromImage are registered classes with no code section.
	MissingFromImage []string `json:"missingFromImage,omitempty"`

	// Interfaces is the interface metadata the analyzer will classify:
	// the application's registry when available, otherwise a registry
	// reconstructed from the image's embedded format strings.
	Interfaces *idl.Registry `json:"-"`
	// ReconstructedInterfaces notes that Interfaces was rebuilt from the
	// binary's configuration record rather than taken from the IDL.
	ReconstructedInterfaces bool `json:"reconstructedInterfaces,omitempty"`

	byName map[string]*ComponentMeta
}

// Component returns the metadata for a class name, or nil.
func (m *Model) Component(name string) *ComponentMeta { return m.byName[name] }

// ScanImage builds the metadata model from a binary image and, when
// available, the application's class and interface registries. app may be
// nil (an image recovered from disk without its application): the model is
// then limited to what the binary itself records, and interface metadata
// is reconstructed from the configuration record's format strings.
// Malformed images produce errors, never panics.
func ScanImage(img *binimg.Image, app *com.App) (*Model, error) {
	if img == nil {
		return nil, fmt.Errorf("staticanal: nil image")
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

	if app != nil && app.Classes != nil {
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
	} else {
		// No registry: every component section stands alone.
		for clsid, size := range sectionSize {
			cm := &ComponentMeta{
				Name:         string(clsid),
				CLSID:        clsid,
				SectionBytes: size,
				InImage:      true,
			}
			m.Components = append(m.Components, cm)
			m.byName[cm.Name] = cm
		}
	}
	sort.Slice(m.Components, func(i, j int) bool { return m.Components[i].Name < m.Components[j].Name })
	sort.Strings(m.OrphanSections)
	sort.Strings(m.MissingFromImage)

	if app != nil && app.Interfaces != nil {
		m.Interfaces = app.Interfaces
	} else if img.Config != nil && len(img.Config.InterfaceMetadata) > 0 {
		reg, err := reconstructInterfaces(img.Config.InterfaceMetadata)
		if err != nil {
			return nil, err
		}
		m.Interfaces = reg
		m.ReconstructedInterfaces = true
	} else {
		m.Interfaces = idl.NewRegistry()
	}
	return m, nil
}

// reconstructInterfaces rebuilds an interface registry from the format
// strings embedded in a configuration record.
func reconstructInterfaces(meta map[string]string) (*idl.Registry, error) {
	reg := idl.NewRegistry()
	iids := make([]string, 0, len(meta))
	for iid := range meta {
		iids = append(iids, iid)
	}
	sort.Strings(iids)
	for _, iid := range iids {
		d, err := idl.ParseInterfaceFormat(meta[iid])
		if err != nil {
			return nil, fmt.Errorf("staticanal: config metadata for %s: %w", iid, err)
		}
		if d.IID != iid {
			return nil, fmt.Errorf("staticanal: config metadata for %s names interface %s", iid, d.IID)
		}
		if reg.Lookup(d.IID) != nil {
			return nil, fmt.Errorf("staticanal: duplicate interface %s in config metadata", d.IID)
		}
		reg.Register(d)
	}
	return reg, nil
}
