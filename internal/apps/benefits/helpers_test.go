package benefits

// Helpers that only the tests use.

// Scenarios lists the Benefits profiling scenarios in Table 1 order.
func Scenarios() []string {
	return []string{ScenVueOne, ScenAddOne, ScenDelOne, ScenBigone}
}
