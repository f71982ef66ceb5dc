package staticanal_test

import (
	"testing"

	"repro/internal/binimg"
	"repro/internal/scenario"
	"repro/internal/staticanal"
)

// BenchmarkScan times the staticanal scan on a paper application and on a
// generated one, with the image built outside the timed loop.
func BenchmarkScan(b *testing.B) {
	for _, name := range []string{"octarine", "synth:shared-state:1:4"} {
		app, err := scenario.NewApp(name)
		if err != nil {
			b.Fatal(err)
		}
		img := binimg.BuildImage(app)
		b.Run("staticanal/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := staticanal.Analyze(app, img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
