package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestCanonicalBytesPinned holds the canonical encoding of four specs to
// its sha256: a plain cut; a cut under another network, classifier and
// depth with a pin, at exact pricing; a synthetic app with coverage,
// replication, alias refinement and a purity threshold; and a Compare-mode
// run with its experiment block. Together they fill
// every field MarshalResult writes. A change behind the contract that
// moves one byte of a result fails here.
func TestCanonicalBytesPinned(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		spec Spec
		sum  string
	}{
		{Spec{Scenarios: []string{"o_oldwp7"}}, "cbdcbe710bffe552f99e35498e49cab5969a5e835eead8f5dc447bc8f74f4a4d"},
		{Spec{Scenarios: []string{"p_newdoc", "p_oldmsr"}, Network: "ISDN", Classifier: "pcb",
			Depth: 3, Pins: map[string]string{"ExifData": "client"}, ExactPricing: true}, "e44a9cf0ae6a98ed24e0617694189f94b0a961811b7c4939c1bf6a5ce6b28fcd"},
		{Spec{App: "synth:shared-state:1", Scenarios: []string{"y_base", "y_heavy", "y_alt"},
			Coverage: true, Replicate: true, Alias: true, Theta: 0.1}, "d1bce723608f59b4e208971f2273ce39c1600958d415b936a5cc56de7135e9b7"},
		{Spec{Scenarios: []string{"b_vueone"}, Compare: true}, "b830827b546d270ac602efce7e3cae08c79c43abec6656bc4103fe1b497f2ded"},
	} {
		res, err := Run(context.Background(), c.spec)
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		b, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.sum {
			t.Errorf("%+v: canonical bytes have sha256 %s, want %s", c.spec, got, c.sum)
		}
	}
}
