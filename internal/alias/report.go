package alias

import (
	"encoding/json"
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
