package binimg_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/idl"
	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/synthapp"
)

// codeFits fails the test for any code section of app that would fall
// back past the code page to a fresh fill.
func codeFits(t *testing.T, name string, app *com.App) {
	t.Helper()
	for _, c := range app.Classes.Classes() {
		size := c.CodeBytes
		if size <= 0 {
			size = 1024
		}
		if len(c.Name)%256+size > binimg.CodePageLen {
			t.Errorf("%s: class %s (%d code bytes) falls back past the %d-byte page",
				name, c.Name, size, binimg.CodePageLen)
		}
	}
}

// buildAlloc is the fewest heap bytes one BuildImage of app allocated
// over a few tries.
func buildAlloc(app *com.App) uint64 {
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		binimg.BuildImage(app)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestBuildImageCodeIsFree holds that a code section costs no heap:
// doubling every class's code, within the page, leaves what BuildImage
// allocates unchanged, and no built-in app declares a section past the
// page. Not parallel: TotalAlloc is process-wide.
//
//lint:allow paralleltest TotalAlloc is process-wide
func TestBuildImageCodeIsFree(t *testing.T) {
	for _, name := range []string{"octarine", "photodraw", "benefits", "quickstart"} {
		app, err := scenario.NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		codeFits(t, name, app)
		base := buildAlloc(app)
		for _, c := range app.Classes.Classes() {
			c.CodeBytes *= 2
		}
		codeFits(t, name+" doubled", app)
		if doubled := buildAlloc(app); doubled != base {
			t.Errorf("%s: BuildImage allocated %d bytes, %d with every class's code doubled",
				name, base, doubled)
		}
	}
	for _, fam := range synthapp.Families() {
		for scale := 1; scale <= synthapp.MaxScale; scale++ {
			g, err := synthapp.Generate(synthapp.Config{Family: fam, Seed: 1, Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			codeFits(t, g.App.Name, g.App)
		}
	}
}

// TestEveryClassHasCode: BuildImage gives every registered class of the
// built-in apps one non-empty code section, which CodeSections reads back
// as the class's code size, and writes no section CodeSections cannot
// place.
func TestEveryClassHasCode(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"octarine", "photodraw", "benefits", "quickstart", "synth:read-replica:1"} {
		app, err := scenario.NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		code, other, err := binimg.BuildImage(app).CodeSections()
		if err != nil {
			t.Fatal(err)
		}
		if len(code) != app.Classes.Len() || len(other) != 0 {
			t.Errorf("%s: %d code owners and other sections %v, want the registry's %d and none",
				name, len(code), other, app.Classes.Len())
		}
		for _, c := range app.Classes.Classes() {
			if code[c.ID] <= 0 {
				t.Errorf("%s: class %s has %d code bytes", name, c.Name, code[c.ID])
			}
		}
	}
}

// TestImageBytesPinned holds the encoded images of built-in apps to the
// bytes they had while every code section was a fresh fill. The whole
// encoding is hashed: its trailing CRC alone is no fingerprint, since a
// CRC32 over data followed by its own CRC is the same residue for every
// image.
func TestImageBytesPinned(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		app  string
		size int
		sum  string
	}{
		{"octarine", 1132111, "be729e8b92aac37537f83cc928a21957ad1358d516aed41537cd9ddf9c34d9d3"},
		{"photodraw", 995614, "e6ac2d8890381710b163ff6f41844c19a83190a516f05e2d937bef85aa7eabbb"},
		{"benefits", 309566, "82b1a212aeb554308e48811a74ba76822ea53f2dc5ef83e2e299f08cec5260bd"},
		{"quickstart", 3360, "ffc2ec1a2ded3666aff92d444f994875e68a3986e5b85e86da58f93b29cce953"},
		{"synth:three-tier:1:1", 1211962, "a010898c2fb6eec6098391b150f558679147eb4402eb7d9f7e539678763f110f"},
		{"synth:skewed:1:4", 2613126, "80005b14c4985c474992c58a42e308bb28d4d7dec7b743ca1e0accf01799882d"},
	} {
		app, err := scenario.NewApp(c.app)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := binimg.BuildImage(app).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if buf.Len() != c.size || hex.EncodeToString(sum[:]) != c.sum {
			t.Errorf("%s: image is %d bytes, sha256 %x; want %d bytes, %s",
				c.app, buf.Len(), sum, c.size, c.sum)
		}
	}
}

// TestCodePageNeverWritten runs the pipeline in Compare mode on a paper
// app and a generated one, puts each final image through an encode,
// decode, write and read, and then checks that a fresh image whose one
// code section spans the whole page still holds the fill: nothing wrote
// into the page its sections view.
func TestCodePageNeverWritten(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	for _, spec := range []pipeline.Spec{
		{App: "octarine", Scenarios: []string{"o_oldwp0"}, Compare: true},
		{App: "synth:three-tier:1", Scenarios: scenario.TrainingForApp("synth:three-tier:1")[:1], Compare: true},
	} {
		res, err := pipeline.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.App, err)
		}
		im := res.ADPS.Image
		var buf bytes.Buffer
		if err := im.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := binimg.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "app.img")
		if err := decoded.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := binimg.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := back.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Errorf("%s: image changed through decode, write and read", spec.App)
		}
	}
	// A 256-byte name seeds the fill at offset 0, so the section is the
	// whole page.
	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_Page", Name: strings.Repeat("P", 256), CodeBytes: binimg.CodePageLen,
		New: func() com.Object { return nil },
	})
	got := binimg.BuildImage(&com.App{Name: "page", Classes: classes, Interfaces: idl.NewRegistry()}).Sections[0].Data
	want := make([]byte, binimg.CodePageLen)
	binimg.Fill(want, 256)
	if !bytes.Equal(got, want) {
		t.Fatal("the code page no longer holds the fill after the pipeline ran")
	}
}
