package alias

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON writes the result as indented canonical JSON. Every slice is
// sorted at construction, so output is byte-stable across runs.
func (r *Result) WriteJSON(w io.Writer) error {
	r.FillChains()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes the human-readable shared-state report.
func (r *Result) WriteText(w io.Writer) error {
	r.FillChains()
	if _, err := fmt.Fprintf(w, "alias analysis: %s\n", r.App); err != nil {
		return err
	}
	fmt.Fprintf(w, "  abstract locations: %d   classes holding pointers: %d   shared pairs: %d (%d mutable)\n",
		len(r.Locations), len(r.Classes), len(r.Pairs), r.mutableCount())
	for _, u := range r.UnknownClasses {
		fmt.Fprintf(w, "  warning: state record for unregistered class %s\n", u)
	}
	if len(r.Locations) > 0 {
		fmt.Fprintf(w, "\nlocations:\n")
		for i := range r.Locations {
			l := &r.Locations[i]
			mut := "immutable"
			if l.Mutable {
				mut = "MUTABLE"
			}
			fmt.Fprintf(w, "  %-24s %-9s %s\n", l.Key, mut, l.Reason)
		}
	}
	if len(r.Pairs) > 0 {
		fmt.Fprintf(w, "\nshared state:\n")
		for i := range r.Pairs {
			p := &r.Pairs[i]
			verdict := "immutable payloads only — no co-location needed"
			if p.Mutable {
				verdict = "shared MUTABLE state — must co-locate"
			}
			fmt.Fprintf(w, "  %s <-> %s: %s\n", p.A, p.B, verdict)
			fmt.Fprintf(w, "    via %s", p.Location)
			if len(p.Locations) > 1 {
				fmt.Fprintf(w, " (%d shared locations)", len(p.Locations))
			}
			fmt.Fprintf(w, "\n")
			for _, step := range p.ChainA {
				fmt.Fprintf(w, "      %s\n", step)
			}
			for _, step := range p.ChainB {
				fmt.Fprintf(w, "      %s\n", step)
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
