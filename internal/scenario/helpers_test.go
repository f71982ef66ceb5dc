package scenario

// Helpers that only the tests use.

// ForApp returns the scenario names belonging to one application, in
// Table 1 order.
func ForApp(app string) []string {
	var out []string
	for _, s := range Table1() {
		if s.App == app {
			out = append(out, s.Name)
		}
	}
	return out
}
