package com

// Helpers that only the tests use.

// MustQuery is Query for statically known-good requests; it panics on
// failure.
func (e *Env) MustQuery(inst *Instance, iid string) *Interface {
	itf, err := e.Query(inst, iid)
	if err != nil {
		panic(err)
	}
	return itf
}
