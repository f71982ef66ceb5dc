package com

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"repro/internal/idl"
)

// Machine identifies a placement target: the exact two-way cut's Client
// or Server.
type Machine int

// Placement targets.
const (
	Client Machine = 0
	Server Machine = 1
)

// String names the machine.
func (m Machine) String() string {
	switch m {
	case Client:
		return "client"
	case Server:
		return "server"
	default:
		return fmt.Sprintf("machine%d", int(m))
	}
}

// Instance is one live component instance. It lives in its Env's chunk
// table and never moves, so a pointer to it stays valid for the Env's life.
type Instance struct {
	ID             uint64
	Class          *Class
	Object         Object
	Machine        Machine
	Classification string // assigned by the instance classifier, "" before

	// primary is the handle Query returns for the class's first interface,
	// filled at activation, so the usual one query per instance allocates
	// nothing. Nothing writes it afterwards, so Query only reads it.
	primary Interface
}

// Interface is a first-class handle to one interface of one instance. All
// inter-component communication flows through Interface handles, which is
// what lets the runtime interpose transparently.
type Interface struct {
	iid  string
	inst *Instance
}

// IID implements idl.InterfacePtr.
func (i *Interface) IID() string { return i.iid }

// InstanceID implements idl.InterfacePtr.
func (i *Interface) InstanceID() uint64 { return i.inst.ID }

// Instance returns the owning instance. The runtime executive uses this to
// track interface ownership.
func (i *Interface) Instance() *Instance { return i.inst }

// Call describes one in-flight interface invocation, passed to the
// CallInterface hook and on to the target object's dispatcher.
//
// A *Call and its Args are valid only until the call returns: Env.Call
// takes the Call from its environment's free list, copies the arguments
// into it, and zeroes and returns it to the list afterwards. A behaviour or hook that keeps a value
// past the call copies it (an idl.Value copies by assignment);
// caching.Cache digests Args and never keeps them.
type Call struct {
	Self   *Instance
	IID    string
	Method string
	Args   []idl.Value
	Env    *Env
	// Iface and Desc are the interface and method descriptors Env.Call
	// resolved for IID and Method, so a hook need not look them up again.
	Iface *idl.InterfaceDesc
	Desc  *idl.MethodDesc

	args [4]idl.Value // inline storage behind Args for short argument lists
}

// Invoke makes an outgoing call from the currently executing component to
// target. It routes through the environment so the runtime sees the call.
func (c *Call) Invoke(target *Interface, method string, args ...idl.Value) ([]idl.Value, error) {
	return c.Env.Call(c.Self, target, method, args...)
}

// Create instantiates a component on behalf of the currently executing
// component.
func (c *Call) Create(clsid CLSID) (*Instance, error) {
	return c.Env.CreateInstance(c.Self, clsid)
}

// Compute accrues d of CPU time on the machine where the current component
// executes. Behaviours use it to model their computational cost on the
// virtual clock.
func (c *Call) Compute(d time.Duration) {
	c.Env.Compute(c.Self, d)
}

// Mutate records that the currently executing method mutates its
// instance's state. Behaviours call it from state-writing methods so the
// runtime can observe mutations and cross-check static purity claims.
func (c *Call) Mutate() {
	c.Env.StateWrite(c.Self, c.Method)
}

// Hooks are the interception points the Coign runtime installs. A nil hook
// field means the default (un-instrumented) behaviour.
type Hooks struct {
	// CreateInstance intercepts instantiation requests. It must call
	// next(class, m) to perform the actual activation on the machine it
	// decides.
	CreateInstance func(creator *Instance, class *Class, next func(*Class, Machine) *Instance) (*Instance, error)
	// CallInterface intercepts interface invocations. call carries the
	// method and arguments; the hook must call next(call) to execute the
	// target method.
	CallInterface func(caller *Instance, target *Interface, call *Call,
		next func(*Call) ([]idl.Value, error)) ([]idl.Value, error)
	// StateWrite observes a state mutation performed by the named method
	// of inst. The default discards the observation.
	StateWrite func(inst *Instance, method string)
}

// ComputeClock receives compute-time accruals. The distributed execution
// engine implements it with a virtual clock; the default discards them.
type ComputeClock interface {
	Compute(machine Machine, d time.Duration)
}

// Env is the component activation environment: the synthetic COM runtime.
// It owns live instances, dispatches interface calls, and exposes the
// interception hooks the Coign runtime attaches to.
type Env struct {
	app    *App
	hooks  Hooks
	clock  ComputeClock
	nextID uint64
	// chunks holds every instance, indexed by its dense id: chunk k holds
	// 4<<k instances, ids 4(2^k-1)+1 through 4(2^(k+1)-1). A chunk is made
	// at its full size and never grown, so an Instance never moves once
	// written and handles and shadow-stack frames may point at it.
	chunks [][]Instance
	// activation is e.activate, bound once so handing it to the
	// CreateInstance hook allocates nothing per instantiation.
	activation func(*Class, Machine) *Instance

	// freeCalls holds the Calls finished calls gave back, for Env.Call to
	// reuse. A mutex guards the list, so calls on more than one goroutine
	// never share a Call.
	freeMu    sync.Mutex
	freeCalls []*Call
}

// NewEnv returns an environment for app with no instrumentation installed.
func NewEnv(app *App) *Env {
	e := &Env{app: app}
	e.activation = e.activate
	return e
}

// App returns the application this environment hosts.
func (e *Env) App() *App { return e.app }

// SetHooks installs runtime interception hooks. Passing the zero Hooks
// removes instrumentation.
func (e *Env) SetHooks(h Hooks) { e.hooks = h }

// SetClock installs a compute clock. A nil clock discards compute time.
func (e *Env) SetClock(c ComputeClock) { e.clock = c }

// Instance returns the instance with the given id, or nil.
func (e *Env) Instance(id uint64) *Instance {
	if id == 0 || id > e.nextID {
		return nil
	}
	k, off := chunkOf(id)
	return &e.chunks[k][off]
}

// chunkOf locates id's slot in the chunk table: chunk k starts at index
// 4(2^k-1), so k is one less than the bit length of (id-1)/4+1.
func chunkOf(id uint64) (k int, off uint64) {
	i := id - 1
	k = bits.Len64(i/4+1) - 1
	return k, i - 4*(1<<k-1)
}

// Instances returns all instances ever created, in creation order.
func (e *Env) Instances() []*Instance {
	out := make([]*Instance, 0, e.nextID)
	for id := uint64(1); id <= e.nextID; id++ {
		out = append(out, e.Instance(id))
	}
	return out
}

// CreateInstance activates a new instance of clsid on behalf of creator
// (nil when the application's main program is the creator). The request is
// routed through the CreateInstance hook when installed, mirroring the
// RTE's trap on CoCreateInstance.
func (e *Env) CreateInstance(creator *Instance, clsid CLSID) (*Instance, error) {
	class := e.app.Classes.Lookup(clsid)
	if class == nil {
		return nil, fmt.Errorf("com: unknown class %s", clsid)
	}
	if e.hooks.CreateInstance != nil {
		return e.hooks.CreateInstance(creator, class, e.activation)
	}
	// Default placement: components are created where their creator runs;
	// the original, non-distributed application runs entirely on the
	// client.
	m := Client
	if creator != nil {
		m = creator.Machine
	}
	return e.activate(class, m), nil
}

// activate creates an instance of class on machine m; it is the next a
// CreateInstance hook receives. The instance is written into its id's
// slot of the chunk table, so activation allocates only what the
// constructor does and, every 4<<k instances, the next chunk; a
// constructor that instantiates in turn fills later slots, not this one.
func (e *Env) activate(class *Class, m Machine) *Instance {
	e.nextID++
	id := e.nextID
	k, off := chunkOf(id)
	if k == len(e.chunks) {
		e.chunks = append(e.chunks, make([]Instance, 4<<k))
	}
	obj := class.New()
	in := &e.chunks[k][off]
	*in = Instance{ID: id, Class: class, Object: obj, Machine: m}
	if len(class.Interfaces) > 0 {
		in.primary = Interface{iid: class.Interfaces[0], inst: in}
	}
	return in
}

// Query returns an interface handle on inst for iid. It fails if the class
// does not implement iid. The handle needs no wrapping: every call through
// it goes through Call, where the CallInterface hook intercepts it. The
// handle for the class's first interface lives in the instance, so
// querying it twice returns the same pointer; any other IID allocates a
// handle per query.
func (e *Env) Query(inst *Instance, iid string) (*Interface, error) {
	if inst == nil {
		return nil, fmt.Errorf("com: QueryInterface on nil instance")
	}
	if !inst.Class.Implements(iid) {
		return nil, fmt.Errorf("com: class %s does not implement %s", inst.Class.Name, iid)
	}
	if inst.primary.iid == iid {
		return &inst.primary, nil
	}
	return &Interface{iid: iid, inst: inst}, nil
}

// Call invokes method on the target interface on behalf of caller (nil for
// the main program). The invocation routes through the CallInterface hook
// when installed. Call keeps no reference to args, so a caller's variadic
// argument list stays on its stack.
func (e *Env) Call(caller *Instance, target *Interface, method string, args ...idl.Value) ([]idl.Value, error) {
	if target == nil {
		return nil, fmt.Errorf("com: call through nil interface")
	}
	var mdesc *idl.MethodDesc
	idesc := e.app.Interfaces.Lookup(target.iid)
	if idesc != nil {
		mdesc = idesc.Method(method)
	}
	if mdesc == nil {
		return nil, fmt.Errorf("com: no metadata for %s.%s", target.iid, method)
	}
	if err := checkArgs(target.iid, mdesc, args); err != nil {
		return nil, err
	}
	call := e.getCall()
	call.Self, call.IID, call.Method, call.Env = target.inst, target.iid, method, e
	call.Iface, call.Desc = idesc, mdesc
	call.Args = append(call.args[:0], args...)
	var rets []idl.Value
	var err error
	if e.hooks.CallInterface != nil {
		rets, err = e.hooks.CallInterface(caller, target, call, dispatch)
	} else {
		rets, err = dispatch(call)
	}
	// A recycled Call pins no application value. Only what this call set
	// is cleared: zeroing the whole Call, four inline Values included,
	// costs a write barrier per pointer word while the GC is marking.
	if len(args) <= len(call.args) {
		clear(call.args[:len(args)])
	}
	call.Self, call.IID, call.Method, call.Args, call.Env = nil, "", "", nil, nil
	call.Iface, call.Desc = nil, nil
	e.putCall(call)
	return rets, err
}

// getCall takes a Call from the free list, or allocates one when every
// Call is in flight.
func (e *Env) getCall() *Call {
	e.freeMu.Lock()
	n := len(e.freeCalls)
	if n == 0 {
		e.freeMu.Unlock()
		return new(Call)
	}
	c := e.freeCalls[n-1]
	e.freeCalls = e.freeCalls[:n-1]
	e.freeMu.Unlock()
	return c
}

// putCall gives a finished, zeroed Call back to the free list.
func (e *Env) putCall(c *Call) {
	e.freeMu.Lock()
	e.freeCalls = append(e.freeCalls, c)
	e.freeMu.Unlock()
}

// dispatch executes call on its target object; it is the next a
// CallInterface hook receives.
func dispatch(call *Call) ([]idl.Value, error) { return call.Self.Object.Invoke(call) }

// checkArgs validates args against the In and InOut parameters of mdesc:
// arity first, then each argument's kind and shape in order. It walks
// mdesc.Params in place so a strict call allocates nothing here.
func checkArgs(iid string, mdesc *idl.MethodDesc, args []idl.Value) error {
	ins := 0
	for _, p := range mdesc.Params {
		if isIn(p) {
			ins++
		}
	}
	if len(args) != ins {
		return fmt.Errorf("com: %s.%s called with %d args, want %d",
			iid, mdesc.Name, len(args), ins)
	}
	i := 0
	for _, p := range mdesc.Params {
		if !isIn(p) {
			continue
		}
		if args[i].Type == nil || args[i].Type.Kind != p.Type.Kind {
			return fmt.Errorf("com: %s.%s arg %d kind mismatch", iid, mdesc.Name, i)
		}
		if err := args[i].Validate(); err != nil {
			return fmt.Errorf("com: %s.%s arg %d: %w", iid, mdesc.Name, i, err)
		}
		i++
	}
	return nil
}

// isIn reports whether p travels caller → callee.
func isIn(p idl.ParamDesc) bool { return p.Dir == idl.In || p.Dir == idl.InOut }

// Compute accrues CPU time for inst's machine on the installed clock.
func (e *Env) Compute(inst *Instance, d time.Duration) {
	if e.clock == nil {
		return
	}
	m := Client
	if inst != nil {
		m = inst.Machine
	}
	e.clock.Compute(m, d)
}

// StateWrite reports a state mutation by method on inst to the installed
// StateWrite hook. Without a hook the observation is discarded.
func (e *Env) StateWrite(inst *Instance, method string) {
	if e.hooks.StateWrite == nil {
		return
	}
	e.hooks.StateWrite(inst, method)
}
