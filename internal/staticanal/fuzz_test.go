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

// FuzzAnalyzeImage feeds corrupted binary images to the static analyzer:
// whatever the bytes decode to, Analyze must return an error or a report
// that accounts for every registered class, never panic.
func FuzzAnalyzeImage(f *testing.F) {
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
		rep, err := staticanal.Analyze(app, img)
		if err != nil {
			return
		}
		if rep.Constraints == nil {
			t.Fatal("analyze returned a report without a constraint set")
		}
		if got, want := rep.ComponentsInImage+len(rep.MissingFromImage), rep.Components; got != want {
			t.Fatalf("%d classes in the image and %d missing, want %d together", rep.ComponentsInImage, len(rep.MissingFromImage), want)
		}
	})
}
