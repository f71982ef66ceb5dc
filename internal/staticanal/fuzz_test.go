package staticanal_test

import (
	"bytes"
	"testing"

	"repro/internal/apps/benefits"
	"repro/internal/apps/photodraw"
	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/core"
	"repro/internal/staticanal"
)

// FuzzScanImage feeds corrupted binary images to the metadata scanner:
// whatever the bytes decode to, scanning must return an error or a model,
// never panic.
func FuzzScanImage(f *testing.F) {
	seed := func(app *com.App, instrument bool) {
		img := binimg.BuildImage(app)
		if instrument {
			adps := core.New(app)
			if err := adps.Instrument(); err != nil {
				f.Fatal(err)
			}
			img = adps.Image
		}
		var buf bytes.Buffer
		if err := img.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(photodraw.New(), false)
	seed(photodraw.New(), true)
	seed(benefits.New(), true)

	app := photodraw.New()
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := binimg.Decode(data)
		if err != nil {
			return
		}
		m, err := staticanal.ScanImage(img, app)
		if err != nil {
			return
		}
		if m.Interfaces == nil {
			t.Fatal("scan returned a model with a nil registry")
		}
		// A scanned model must always classify and derive cleanly.
		reports := staticanal.ClassifyInterfaces(m.Interfaces)
		cs := staticanal.Derive(m, reports)
		if cs == nil {
			t.Fatal("derive returned nil")
		}
	})
}
