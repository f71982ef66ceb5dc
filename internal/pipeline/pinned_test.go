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
// every field MarshalResult writes. The build version is blanked, since it
// names the binary, not the result. A change behind the contract that
// moves one byte of a result fails here.
func TestCanonicalBytesPinned(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		spec Spec
		sum  string
	}{
		{Spec{Scenarios: []string{"o_oldwp7"}}, "5b8b824352b47c9caf10f9f2d2bd7c6064bd4a78f1a6f13e7ac2de1064a20962"},
		{Spec{Scenarios: []string{"p_newdoc", "p_oldmsr"}, Network: "ISDN", Classifier: "pcb",
			Depth: 3, Pins: map[string]string{"ExifData": "client"}, ExactPricing: true}, "714d035325943bddfc5a91228f721ae7625d05b20b48193b2c17841c63e325bb"},
		{Spec{App: "synth:shared-state:1", Scenarios: []string{"y_base", "y_heavy", "y_alt"},
			Coverage: true, Replicate: true, Alias: true, Theta: 0.1}, "9349b68fd28e9278e6e5cf65330100419877a8a3d5f061ad16d4806ee54b855c"},
		{Spec{Scenarios: []string{"b_vueone"}, Compare: true}, "2cfe54cc70cc8dfcc521a1b9684db5ac3f5efdbf9982e97f3e876f1a65d5fd6b"},
	} {
		res, err := Run(context.Background(), c.spec)
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		res.Version = ""
		b, err := MarshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.sum {
			t.Errorf("%+v: canonical bytes have sha256 %s, want %s", c.spec, got, c.sum)
		}
	}
}
