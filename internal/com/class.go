// Package com implements the synthetic component object model: classes,
// instances, first-class interface handles, and an activation environment
// with interception hooks.
//
// It reproduces the properties of Microsoft COM that Coign depends on:
// components are packaged, instantiated, and connected in binary form; all
// first-class communication passes through interfaces; and a runtime layer
// can transparently interpose on instantiation requests and interface
// calls without application cooperation.
package com

import (
	"fmt"
	"sort"

	"repro/internal/idl"
)

// CLSID identifies a component class.
type CLSID string

// Well-known API names used by the profile analysis engine's static
// analysis to derive location constraints (paper §2: components that access
// a set of known GUI or storage APIs are placed on the client or server
// respectively).
const (
	APIGdiPaint     = "gdi32.BitBlt"
	APIUserWindow   = "user32.CreateWindow"
	APIUserInput    = "user32.GetMessage"
	APIFileRead     = "kernel32.ReadFile"
	APIFileWrite    = "kernel32.WriteFile"
	APIFileOpen     = "kernel32.CreateFile"
	APIODBCConnect  = "odbc32.SQLConnect"
	APIODBCExec     = "odbc32.SQLExecDirect"
	APISharedMemory = "kernel32.MapViewOfFile"
	APIClipboard    = "user32.OpenClipboard"
	APIPrintSpool   = "winspool.StartDoc"
)

// Object is a component implementation: a dispatcher for interface method
// calls. Implementations receive a Call describing the invocation and
// return the out-parameter list.
type Object interface {
	Invoke(call *Call) ([]idl.Value, error)
}

// ObjectFunc adapts a plain function to the Object interface.
type ObjectFunc func(call *Call) ([]idl.Value, error)

// Invoke calls f.
func (f ObjectFunc) Invoke(call *Call) ([]idl.Value, error) { return f(call) }

// StateDesc declares the mutable state of a component class and which
// methods touch it — the state-mutability metadata the binary rewriter
// embeds as `.state$` sections and the purity analysis recovers by
// scanning the image. Bytes is the size of the instance state block;
// zero declares the class stateless. Reads and Writes list method names
// (across all implemented interfaces) that read or mutate the state.
// Like activation records, the declaration is over-approximate on the
// write side: a listed writer may never mutate at run time, but an
// unlisted one must never (the purity verifier reports an observed
// mutation through a method not declared as a writer as a static miss).
type StateDesc struct {
	Bytes  int      // size of the instance state block; 0 = stateless
	Reads  []string // methods that only read the state
	Writes []string // methods that may mutate the state
}

// ReadsMethod reports whether the descriptor declares method a reader.
func (s *StateDesc) ReadsMethod(m string) bool {
	for _, r := range s.Reads {
		if r == m {
			return true
		}
	}
	return false
}

// WritesMethod reports whether the descriptor declares method a writer.
func (s *StateDesc) WritesMethod(m string) bool {
	for _, w := range s.Writes {
		if w == m {
			return true
		}
	}
	return false
}

// Class describes a component class: its identity, the interfaces it
// implements, the system APIs its binary imports (input to constraint
// inference), and a constructor.
type Class struct {
	ID         CLSID
	Name       string
	Interfaces []string // IIDs implemented by instances of the class
	APIs       []string // imported system APIs, for static analysis
	CodeBytes  int      // granularity metadata: size of the component binary
	New        func() Object

	// Home is the machine the developer's default distribution assigns the
	// class to (the application "as shipped"). Zero value is the client.
	Home Machine
	// Infrastructure marks environment components with a fixed location
	// that Coign cannot move — the file server's storage, the ODBC
	// database engine behind its proprietary protocol. Instances always
	// run at Home and their classifications are pinned there during
	// analysis.
	Infrastructure bool

	// Activations lists every CLSID this class's code can pass to an
	// instantiation request — the static activation-site metadata the
	// binary rewriter embeds as relocation records and the reachability
	// analysis recovers by scanning the image. The list is
	// over-approximate: a listed CLSID may never be activated at run time,
	// but an unlisted one must never be (the reachability verifier reports
	// such an observation as a static miss).
	Activations []CLSID
	// DynamicActivation marks classes that compute CLSIDs at run time
	// (generic factories whose activation targets are data, not code).
	// The reachability analysis attributes an activation performed by such
	// a class to the innermost non-factory frame of the activation call
	// path, and grants the factory the interface types its own method
	// signatures can return.
	DynamicActivation bool

	// State declares the class's mutable state and per-method read/write
	// behaviour. Nil means the class ships no state metadata; the purity
	// analysis then treats every method as conservatively mutating.
	State *StateDesc
}

// Implements reports whether the class implements the interface.
func (c *Class) Implements(iid string) bool {
	for _, i := range c.Interfaces {
		if i == iid {
			return true
		}
	}
	return false
}

// ClassRegistry maps CLSIDs to classes, the analog of the COM class table
// consulted by CoCreateInstance.
type ClassRegistry struct {
	byID   map[CLSID]*Class
	byName map[string]*Class
}

// NewClassRegistry returns an empty class registry.
func NewClassRegistry() *ClassRegistry {
	return &ClassRegistry{byID: make(map[CLSID]*Class), byName: make(map[string]*Class)}
}

// Register adds a class; duplicate CLSIDs or names are a build error and
// panic. Names must be unique because profiles and classifications refer
// to classes by name.
func (r *ClassRegistry) Register(c *Class) {
	if c.ID == "" {
		panic("com: class with empty CLSID")
	}
	if c.Name == "" {
		panic(fmt.Sprintf("com: class %s has no name", c.ID))
	}
	if _, dup := r.byID[c.ID]; dup {
		panic(fmt.Sprintf("com: duplicate class %s", c.ID))
	}
	if _, dup := r.byName[c.Name]; dup {
		panic(fmt.Sprintf("com: duplicate class name %s", c.Name))
	}
	if c.New == nil {
		panic(fmt.Sprintf("com: class %s has no constructor", c.ID))
	}
	r.byID[c.ID] = c
	r.byName[c.Name] = c
}

// LookupName returns the class with the given name, or nil.
func (r *ClassRegistry) LookupName(name string) *Class { return r.byName[name] }

// Lookup returns the class for id, or nil.
func (r *ClassRegistry) Lookup(id CLSID) *Class { return r.byID[id] }

// Len returns the number of registered classes.
func (r *ClassRegistry) Len() int { return len(r.byID) }

// Classes returns all classes sorted by CLSID for deterministic iteration.
func (r *ClassRegistry) Classes() []*Class {
	out := make([]*Class, 0, len(r.byID))
	for _, c := range r.byID {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// App bundles everything that constitutes an application built from
// components: its class and interface registries, the import table of its
// binary, and an entry point that drives a named usage scenario.
type App struct {
	Name       string
	Classes    *ClassRegistry
	Interfaces *idl.Registry
	Imports    []string // DLL import table of the application binary
	// MainActivations lists the CLSIDs the main program itself can pass to
	// an instantiation request — the activation roots of the reachability
	// analysis.
	MainActivations []CLSID
	// Main drives the application through the named scenario. seed makes
	// input-driven behaviour reproducible.
	Main func(env *Env, scenario string, seed int64) error
}
