package purity

import (
	"testing"

	"repro/internal/binimg"
	"repro/internal/reach"
	"repro/internal/scenario"
)

// BenchmarkScan times the purity scan on a paper application and on a
// generated one, with the image built outside the timed loop.
func BenchmarkScan(b *testing.B) {
	for _, name := range []string{"octarine", "synth:shared-state:1:4"} {
		app, err := scenario.NewApp(name)
		if err != nil {
			b.Fatal(err)
		}
		img := binimg.BuildImage(app)
		rg, err := reach.Scan(img, app)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("purity/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := Scan(img, app, rg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
