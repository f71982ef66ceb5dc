package classify

// Helpers that only the tests use.

// Classify returns c's descriptor for an instantiation of class with the
// given call stack as a string.
func Classify(c Classifier, class string, stack []Frame) string {
	return string(c.AppendDescriptor(nil, class, stack))
}

// ActivationPath reduces a call stack (innermost frame first) to the chain
// of creator classes, one entry per component instance on the stack. This
// is the full activation call path — not just the top frame — that lets
// the reachability analysis join static activation sites to dynamic
// observations even when the immediate creator is a generic factory. The
// path is one exact allocation, and non-nil even when empty.
func ActivationPath(stack []Frame) []string {
	n := 0
	for i := 0; i < len(stack); i = entryPoint(stack, i) + 1 {
		n++
	}
	return AppendActivationPath(make([]string, 0, n), stack)
}
