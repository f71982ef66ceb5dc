// Package idl provides interface metadata for the synthetic component model:
// type descriptors, method signatures, typed values, deep-copy size
// measurement with DCOM semantics, and remotability.
//
// In the original Coign system this role is played by the format strings and
// marshaling code emitted by the Microsoft IDL compiler; the profiling
// interface informer invokes that code in-process to measure exactly the
// number of bytes DCOM would transfer if a call crossed machines. This
// package reproduces that measurement from the descriptors themselves, which
// the runtime holds in the application's registry: there is no format-string
// encoding, and the image's configuration record carries no interface
// metadata.
package idl

import (
	"fmt"
	"slices"
	"sort"
)

// Kind enumerates the wire type categories supported by the interface
// definition language.
type Kind int

const (
	// KindVoid is the absence of a value (procedures with no results).
	KindVoid Kind = iota
	// KindBool is a boolean, marshaled as a 4-byte integer as in NDR.
	KindBool
	// KindInt32 is a 32-bit signed integer.
	KindInt32
	// KindInt64 is a 64-bit signed integer.
	KindInt64
	// KindFloat64 is an IEEE-754 double.
	KindFloat64
	// KindString is a length-prefixed UTF-8 string.
	KindString
	// KindBytes is a length-prefixed byte buffer (conformant array of bytes).
	KindBytes
	// KindStruct is a record of named fields, marshaled field by field.
	KindStruct
	// KindArray is a conformant array of a single element type.
	KindArray
	// KindInterface is a COM-style interface pointer. Marshaling an
	// interface pointer transmits an object reference (OBJREF), not the
	// object itself.
	KindInterface
	// KindOpaque is a raw pointer or shared-memory handle passed through an
	// interface without IDL description. Opaque values cannot be marshaled
	// across machines; an interface carrying one is non-remotable.
	KindOpaque
)

// String returns the IDL keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindBool:
		return "boolean"
	case KindInt32:
		return "long"
	case KindInt64:
		return "hyper"
	case KindFloat64:
		return "double"
	case KindString:
		return "string"
	case KindBytes:
		return "byte[]"
	case KindStruct:
		return "struct"
	case KindArray:
		return "array"
	case KindInterface:
		return "interface*"
	case KindOpaque:
		return "void*"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TypeDesc describes a wire type. TypeDescs are immutable after
// construction and may be shared freely.
type TypeDesc struct {
	Kind   Kind
	Name   string      // optional type name (structs, named interfaces)
	Fields []FieldDesc // KindStruct only
	Elem   *TypeDesc   // KindArray only
	IID    string      // KindInterface only: expected interface id ("" = any)
}

// FieldDesc is a named struct field.
type FieldDesc struct {
	Name string
	Type *TypeDesc
}

// Predeclared scalar type descriptors.
var (
	TVoid    = &TypeDesc{Kind: KindVoid}
	TBool    = &TypeDesc{Kind: KindBool} //lint:allow unusedexport closed set: one predeclared descriptor per scalar Kind
	TInt32   = &TypeDesc{Kind: KindInt32}
	TInt64   = &TypeDesc{Kind: KindInt64} //lint:allow unusedexport closed set: one predeclared descriptor per scalar Kind
	TFloat64 = &TypeDesc{Kind: KindFloat64}
	TString  = &TypeDesc{Kind: KindString}
	TBytes   = &TypeDesc{Kind: KindBytes}
	TOpaque  = &TypeDesc{Kind: KindOpaque}
)

// Struct constructs a struct type descriptor.
func Struct(name string, fields ...FieldDesc) *TypeDesc {
	return &TypeDesc{Kind: KindStruct, Name: name, Fields: fields}
}

// Field constructs a struct field descriptor.
func Field(name string, t *TypeDesc) FieldDesc {
	return FieldDesc{Name: name, Type: t}
}

// InterfaceType constructs an interface-pointer type descriptor. iid may be
// empty to accept any interface.
func InterfaceType(iid string) *TypeDesc {
	return &TypeDesc{Kind: KindInterface, Name: iid, IID: iid}
}

// Remotable reports whether values of the type can be marshaled across a
// machine boundary. Opaque pointers — and any aggregate containing one —
// cannot.
func (t *TypeDesc) Remotable() bool {
	switch t.Kind {
	case KindOpaque:
		return false
	case KindStruct:
		for _, f := range t.Fields {
			if !f.Type.Remotable() {
				return false
			}
		}
		return true
	case KindArray:
		return t.Elem.Remotable()
	default:
		return true
	}
}

// Walk calls visit on t and on every type nested in it — struct fields
// and array elements — depth first in declaration order, and stops as
// soon as visit returns false; it reports whether it ran to the end. A
// descriptor already on the path from t is not entered again, so a
// recursive descriptor ends its branch instead of the stack.
func Walk(t *TypeDesc, visit func(*TypeDesc) bool) bool {
	var path [8]*TypeDesc
	return walk(t, visit, path[:0])
}

func walk(t *TypeDesc, visit func(*TypeDesc) bool, path []*TypeDesc) bool {
	if t == nil || slices.Contains(path, t) {
		return true
	}
	if !visit(t) {
		return false
	}
	path = append(path, t)
	switch t.Kind {
	case KindStruct:
		for _, f := range t.Fields {
			if !walk(f.Type, visit, path) {
				return false
			}
		}
	case KindArray:
		return walk(t.Elem, visit, path)
	}
	return true
}

// ParamDir is the direction of a method parameter.
type ParamDir int

const (
	// In parameters travel caller → callee.
	In ParamDir = iota
	// Out parameters travel callee → caller.
	Out
	// InOut parameters travel both directions.
	InOut
)

// String returns the IDL attribute spelling for the direction.
func (d ParamDir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "in,out"
	default:
		return fmt.Sprintf("dir(%d)", int(d))
	}
}

// ParamDesc describes one method parameter.
type ParamDesc struct {
	Name string
	Dir  ParamDir
	Type *TypeDesc
}

// MethodDesc describes one interface method. Cacheable asserts that the
// method's results depend only on its arguments, permitting the runtime to
// answer repeated cross-machine calls from a proxy-side cache — the analog
// of enabling COM semi-custom marshaling on the interface.
type MethodDesc struct {
	Name      string
	Params    []ParamDesc
	Result    *TypeDesc // KindVoid if none
	Cacheable bool
}

// InterfaceDesc describes a component interface: an IID, a name, and an
// ordered collection of methods. Remotable is false when the interface
// passes opaque pointers (shared-memory handles) that DCOM cannot marshal;
// Coign must co-locate the two endpoints of such an interface.
type InterfaceDesc struct {
	IID       string
	Name      string
	Remotable bool
	Methods   []MethodDesc

	methodIndex map[string]*MethodDesc
}

// Method returns the descriptor of the named method, or nil. Lookups are
// indexed once the descriptor is registered; unregistered descriptors fall
// back to a linear scan.
func (d *InterfaceDesc) Method(name string) *MethodDesc {
	if d.methodIndex != nil {
		return d.methodIndex[name]
	}
	for i := range d.Methods {
		if d.Methods[i].Name == name {
			return &d.Methods[i]
		}
	}
	return nil
}

// buildIndex materializes the method lookup table.
func (d *InterfaceDesc) buildIndex() {
	d.methodIndex = make(map[string]*MethodDesc, len(d.Methods))
	for i := range d.Methods {
		d.methodIndex[d.Methods[i].Name] = &d.Methods[i]
	}
}

// Registry maps IIDs to interface descriptors. It is the synthetic
// equivalent of the static interface metadata the runtime sizes calls
// against.
type Registry struct {
	byIID map[string]*InterfaceDesc
}

// NewRegistry returns an empty interface registry.
func NewRegistry() *Registry {
	return &Registry{byIID: make(map[string]*InterfaceDesc)}
}

// Register adds an interface descriptor. It panics on duplicate IIDs:
// interface identity is a build-time property, so a duplicate is a
// programming error, not a runtime condition.
func (r *Registry) Register(d *InterfaceDesc) {
	if d.IID == "" {
		panic("idl: interface with empty IID")
	}
	if _, dup := r.byIID[d.IID]; dup {
		panic("idl: duplicate interface " + d.IID)
	}
	d.buildIndex()
	r.byIID[d.IID] = d
}

// Lookup returns the descriptor for iid, or nil if unknown.
func (r *Registry) Lookup(iid string) *InterfaceDesc {
	return r.byIID[iid]
}

// IIDs returns all registered interface ids, sorted.
func (r *Registry) IIDs() []string {
	ids := make([]string, 0, len(r.byIID))
	for id := range r.byIID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
