package binimg

import (
	"bytes"
	"testing"

	"repro/internal/com"
)

// FuzzDecode hardens the image decoder against arbitrary byte streams: it
// must never panic, and any successful decode must re-encode to a form
// that decodes to the same image (idempotence). Run with `go test -fuzz
// FuzzDecode ./internal/binimg` to explore beyond the seed corpus.
func FuzzDecode(f *testing.F) {
	// Seeds: a valid image, a distribution image, and junk.
	im := BuildImage(testApp())
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	inst, err := Instrument(im, "ifcb", 3)
	if err != nil {
		f.Fatal(err)
	}
	placed, err := SetDistribution(inst, map[string]com.Machine{"A@1": com.Client, "B@2": com.Server})
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := placed.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CoIm garbage"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := got.Encode(&re); err != nil {
			t.Fatalf("decoded image failed to re-encode: %v", err)
		}
		again, err := Decode(re.Bytes())
		if err != nil {
			t.Fatalf("re-encoded image failed to decode: %v", err)
		}
		if again.AppName != got.AppName || len(again.Sections) != len(got.Sections) ||
			len(again.Imports) != len(got.Imports) {
			t.Fatal("decode/encode not idempotent")
		}
	})
}
