package binimg

import (
	"fmt"
	"maps"

	"repro/internal/com"
)

// BuildImage synthesizes the original (un-instrumented) binary image for
// an application: one code section per component class sized by the
// class's CodeBytes, plus the application's own import table. A code
// section is a view of codePage, so building an image allocates no code
// bytes; its holders must never write into a section's Data.
func BuildImage(app *com.App) *Image {
	im := &Image{AppName: app.Name}
	im.Imports = append(im.Imports, app.Imports...)
	if len(im.Imports) == 0 {
		im.Imports = []string{app.Name + ".exe"}
	}
	for _, c := range app.Classes.Classes() {
		size := c.CodeBytes
		if size <= 0 {
			size = 1024
		}
		// Section contents are a deterministic fill; only sizes matter to
		// the pipeline, but real bytes make checksums meaningful.
		im.Sections = append(im.Sections, Section{Name: CodePrefix + string(c.ID), Data: code(size, len(c.Name))})
		// Activation sites become relocation records the reachability
		// analysis scans back out of the image.
		if len(c.Activations) > 0 || c.DynamicActivation {
			im.Sections = append(im.Sections, Section{
				Name: RelocPrefix + string(c.ID),
				Data: EncodeReloc(c.DynamicActivation, c.Activations),
			})
		}
		// State descriptors become state-mutability records the purity
		// analysis scans back out of the image.
		if c.State != nil {
			im.Sections = append(im.Sections, Section{
				Name: StatePrefix + string(c.ID),
				Data: EncodeState(c.State),
			})
		}
	}
	if len(app.MainActivations) > 0 {
		im.Sections = append(im.Sections, Section{
			Name: RelocPrefix + MainRelocName,
			Data: EncodeReloc(false, app.MainActivations),
		})
	}
	return im
}

// codePage holds the code fill once: byte i is byte(i). It spans the
// largest section any built-in app declares (synthapp's 320 KiB) at every
// seed offset. A package-level array lives in static data, so the page
// costs no heap.
var codePage [320<<10 + 256]byte

func init() { fill(codePage[:], 0) }

// code returns an n-byte code section filled from seed: a view of
// codePage whose capacity is n, so an append copies rather than writing
// into the page. A size past the page falls back to a fresh fill.
func code(n, seed int) []byte {
	off := seed % 256
	if off+n > len(codePage) {
		data := make([]byte, n)
		fill(data, seed)
		return data
	}
	return codePage[off : off+n : off+n]
}

// fill writes deterministic contents: byte i is seed+i, a pattern with
// period 256. Only the first period is written by a loop; the rest is
// copied. It runs once for codePage and again only for a section past the
// page.
func fill(data []byte, seed int) {
	n := min(len(data), 256)
	for i := 0; i < n; i++ {
		data[i] = byte(seed + i)
	}
	for ; n < len(data); n *= 2 {
		copy(data[n:], data[:n])
	}
}

// Instrument performs the binary rewriter's two modifications: it inserts
// the Coign runtime into the first slot of the import table and appends a
// configuration record directing the runtime to profile with the given
// classifier. Instrumenting an already-instrumented image only replaces
// the configuration record.
func Instrument(im *Image, classifier string, depth int) (*Image, error) {
	if classifier == "" {
		return nil, fmt.Errorf("binimg: instrumentation requires a classifier")
	}
	out := im.clone()
	if !out.Instrumented() {
		out.Imports = append([]string{CoignRuntimeDLL}, out.Imports...)
	}
	out.Config = &ConfigRecord{Mode: ModeProfiling, Classifier: classifier, ClassifierDepth: depth}
	return out, nil
}

// SetDistribution rewrites the configuration record for distributed
// execution: the profiling instrumentation is removed and in its place the
// lightweight runtime will load to realize (enforce) the distribution
// chosen by the graph-cutting algorithm.
func SetDistribution(im *Image, dist map[string]com.Machine) (*Image, error) {
	if !im.Instrumented() {
		return nil, fmt.Errorf("binimg: cannot set a distribution on an un-instrumented image")
	}
	if im.Config == nil {
		return nil, fmt.Errorf("binimg: image has no configuration record")
	}
	if len(dist) == 0 {
		return nil, fmt.Errorf("binimg: empty distribution")
	}
	out := im.clone()
	cfg := *im.Config
	cfg.Mode = ModeDistribution
	cfg.Distribution = maps.Clone(dist)
	out.Config = &cfg
	return out, nil
}

func (im *Image) clone() *Image {
	out := &Image{AppName: im.AppName}
	out.Imports = append([]string(nil), im.Imports...)
	out.Sections = append([]Section(nil), im.Sections...)
	if im.Config != nil {
		cfg := *im.Config
		out.Config = &cfg
	}
	return out
}
