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

// Release destroys an instance. Further calls through its interfaces
// fail. No application releases an instance; the release path is
// exercised from the tests alone.
func (e *Env) Release(inst *Instance) {
	if inst == nil || inst.Released {
		return
	}
	inst.Released = true
	if e.hooks.ReleaseInstance != nil {
		e.hooks.ReleaseInstance(inst)
	}
}
