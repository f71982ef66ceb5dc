package binimg

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/com"
	"repro/internal/idl"
)

func testApp() *com.App {
	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_A", Name: "A", CodeBytes: 2048,
		New: func() com.Object { return nil },
	})
	classes.Register(&com.Class{
		ID: "CLSID_B", Name: "B",
		New: func() com.Object { return nil },
	})
	return &com.App{
		Name:       "demo",
		Classes:    classes,
		Interfaces: idl.NewRegistry(),
		Imports:    []string{"demo.exe", "widgets.dll"},
	}
}

func TestBuildImage(t *testing.T) {
	t.Parallel()
	im := BuildImage(testApp())
	if im.AppName != "demo" {
		t.Errorf("name = %s", im.AppName)
	}
	if len(im.Imports) != 2 || im.Imports[0] != "demo.exe" {
		t.Errorf("imports = %v", im.Imports)
	}
	if len(im.Sections) != 2 {
		t.Fatalf("sections = %d", len(im.Sections))
	}
	if im.CodeBytes() != 2048+1024 { // B defaults to 1024
		t.Errorf("code bytes = %d", im.CodeBytes())
	}
	if im.Instrumented() {
		t.Error("fresh image claims instrumentation")
	}
}

func TestBuildImageFillPattern(t *testing.T) {
	t.Parallel()
	// Byte i of a code section is len(class name)+i, whatever the size:
	// shorter than one 256-byte period, exactly one, not a power of two,
	// up to the page's edge, and one past it (a fresh fill). Names of 256
	// bytes or more wrap the seed.
	for _, seed := range []int{1, 255, 256, 300} {
		off := seed % 256
		edge := len(codePage) - off
		for _, size := range []int{1, 255, 256, 257, 1024, 100000, edge, edge + 1} {
			app := testApp()
			a := app.Classes.Lookup("CLSID_A")
			a.Name = strings.Repeat("A", seed)
			a.CodeBytes = size
			data := BuildImage(app).Sections[0].Data
			if len(data) != size || cap(data) != size {
				t.Fatalf("seed %d size %d: section holds len %d cap %d", seed, size, len(data), cap(data))
			}
			if view := &data[0] == &codePage[off]; view != (size <= edge) {
				t.Errorf("seed %d size %d: view of the page = %v", seed, size, view)
			}
			for i, b := range data {
				if b != byte(seed+i) {
					t.Fatalf("seed %d size %d: byte %d = %d, want %d", seed, size, i, b, byte(seed+i))
				}
			}
			grown := append(data, ^byte(seed+size))
			if &grown[0] == &data[0] {
				t.Fatalf("seed %d size %d: append grew the section in place", seed, size)
			}
		}
	}
	for i, b := range codePage {
		if b != byte(i) {
			t.Fatalf("code page byte %d = %d after appends", i, b)
		}
	}
}

func TestBuildImageDefaultImports(t *testing.T) {
	t.Parallel()
	app := testApp()
	app.Imports = nil
	im := BuildImage(app)
	if len(im.Imports) != 1 || im.Imports[0] != "demo.exe" {
		t.Errorf("imports = %v", im.Imports)
	}
}

func TestInstrumentInsertsFirstImportSlot(t *testing.T) {
	t.Parallel()
	im := BuildImage(testApp())
	inst, err := Instrument(im, "ifcb", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Instrumented() {
		t.Fatal("not instrumented")
	}
	// The Coign runtime occupies the FIRST slot so it loads before the
	// application and all of its DLLs.
	if inst.Imports[0] != CoignRuntimeDLL || inst.Imports[1] != "demo.exe" {
		t.Errorf("imports = %v", inst.Imports)
	}
	if inst.Config == nil || inst.Config.Mode != ModeProfiling || inst.Config.Classifier != "ifcb" {
		t.Errorf("config = %+v", inst.Config)
	}
	// The original image is untouched.
	if im.Instrumented() || im.Config != nil {
		t.Error("Instrument mutated its input")
	}
	// Re-instrumenting does not duplicate the import entry.
	again, err := Instrument(inst, "st", 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Imports[0] != CoignRuntimeDLL || again.Imports[1] != "demo.exe" || len(again.Imports) != 3 {
		t.Errorf("re-instrumented imports = %v", again.Imports)
	}
}

func TestInstrumentRequiresClassifier(t *testing.T) {
	t.Parallel()
	if _, err := Instrument(BuildImage(testApp()), "", 0); err == nil {
		t.Fatal("empty classifier accepted")
	}
}

func TestSetDistribution(t *testing.T) {
	t.Parallel()
	im := BuildImage(testApp())
	inst, _ := Instrument(im, "ifcb", 0)
	dist := map[string]com.Machine{"A@1": com.Client, "B@2": com.Server}
	d, err := SetDistribution(inst, dist)
	if err != nil {
		t.Fatal(err)
	}
	if d.Config.Mode != ModeDistribution {
		t.Errorf("config = %+v", d.Config)
	}
	got := d.Config.Distribution
	if len(got) != 2 || got["A@1"] != com.Client || got["B@2"] != com.Server {
		t.Errorf("distribution = %v", got)
	}
	// The record holds its own copy: the caller's map may change after.
	dist["A@1"] = com.Server
	if got["A@1"] != com.Client {
		t.Error("the record shares the caller's map")
	}
	// Classifier survives: the lightweight runtime needs it to correlate
	// instantiations with profiled classifications.
	if d.Config.Classifier != "ifcb" {
		t.Errorf("classifier = %s", d.Config.Classifier)
	}
	// Errors.
	if _, err := SetDistribution(im, dist); err == nil {
		t.Error("un-instrumented image accepted")
	}
	if _, err := SetDistribution(inst, nil); err == nil {
		t.Error("empty distribution accepted")
	}
	broken := inst.clone()
	broken.Config = nil
	if _, err := SetDistribution(broken, dist); err == nil {
		t.Error("missing config accepted")
	}
}

// TestRecordWithoutDistribution: a profiling record carries no map, and
// its encoding has no distribution member, so it decodes back to none.
func TestRecordWithoutDistribution(t *testing.T) {
	t.Parallel()
	inst, _ := Instrument(BuildImage(testApp()), "ifcb", 0)
	var buf bytes.Buffer
	if err := inst.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"distribution"`)) {
		t.Error("a profiling record encodes a distribution member")
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.Distribution != nil {
		t.Errorf("profiling record decoded a map: %v", got.Config.Distribution)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	im := BuildImage(testApp())
	inst, _ := Instrument(im, "ifcb", 3)
	var buf bytes.Buffer
	if err := inst.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.AppName != "demo" || !got.Instrumented() {
		t.Fatalf("decoded = %+v", got)
	}
	if len(got.Sections) != 2 || len(got.Sections[0].Data) != 2048 {
		t.Fatalf("sections lost: %d", len(got.Sections))
	}
	if got.Config.Classifier != "ifcb" || got.Config.ClassifierDepth != 3 {
		t.Fatalf("config lost: %+v", got.Config)
	}
	if !bytes.Equal(got.Sections[0].Data, inst.Sections[0].Data) {
		t.Error("section data corrupted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	t.Parallel()
	im := BuildImage(testApp())
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip a byte in the middle: checksum must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := Decode(corrupt); err == nil {
		t.Error("corrupted image decoded")
	}
	// Truncation.
	if _, err := Decode(data[:5]); err == nil {
		t.Error("truncated image decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty image decoded")
	}
	// Bad magic (fix up checksum so only the magic is wrong).
	bad := append([]byte(nil), data...)
	bad[0] ^= 1
	// Recompute trailing CRC over the modified body.
	body := bad[:len(bad)-4]
	var crcbuf bytes.Buffer
	crcbuf.Write(body)
	if _, err := Decode(bad); err == nil {
		t.Error("bad-magic image decoded (checksum should catch or magic check)")
	}
}

func TestImageFileRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.img")
	im := BuildImage(testApp())
	if err := im.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppName != im.AppName || got.CodeBytes() != im.CodeBytes() {
		t.Error("file round trip lost data")
	}
	if _, err := ReadFile(filepath.Join(dir, "nope.img")); err == nil {
		t.Error("missing file read")
	}
}
