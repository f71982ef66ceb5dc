// Package classset numbers an application's classes densely and keeps
// sets of them as bitsets: the representation the static scans' fixed
// points run on.
//
// A COM reference travels only through an activation, a return value or a
// parameter, so reach's interface flows, alias's points-to sets and
// purity's impurity closure are each set union over classes. The
// numbering sorts the class names together with the main program's, so
// ascending id is ascending name: a set walked from its lowest bit up is
// walked in exactly the sorted order the string-keyed analyses used, and
// every first-wins provenance they derive is unchanged.
package classset

import (
	"math/bits"
	"slices"
	"strings"

	"repro/internal/com"
	"repro/internal/profile"
)

// Numbering gives every class of a registry, and the main program, a
// dense id in ascending name order.
type Numbering struct {
	entries []entry
	main    int
	reg     *com.ClassRegistry
}

type entry struct {
	name  string
	class *com.Class // nil for the main program
}

// New numbers the registry's classes and profile.MainProgram.
func New(reg *com.ClassRegistry) *Numbering {
	classes := reg.Classes()
	entries := make([]entry, 0, len(classes)+1)
	entries = append(entries, entry{name: profile.MainProgram})
	for _, c := range classes {
		entries = append(entries, entry{name: c.Name, class: c})
	}
	slices.SortFunc(entries, func(a, b entry) int { return strings.Compare(a.name, b.name) })
	n := &Numbering{entries: entries, reg: reg}
	n.main = n.ID(profile.MainProgram)
	return n
}

// Of reports whether the numbering was made from reg.
func (n *Numbering) Of(reg *com.ClassRegistry) bool { return n.reg == reg }

// Len returns the number of ids, the main program's included.
func (n *Numbering) Len() int { return len(n.entries) }

// Main returns the main program's id.
func (n *Numbering) Main() int { return n.main }

// Name returns the name numbered id.
func (n *Numbering) Name(id int) string { return n.entries[id].name }

// Class returns the class numbered id; nil for the main program.
func (n *Numbering) Class(id int) *com.Class { return n.entries[id].class }

// ID returns the id of the named class or of profile.MainProgram, or -1.
func (n *Numbering) ID(name string) int {
	i, ok := slices.BinarySearchFunc(n.entries, name, func(e entry, name string) int {
		return strings.Compare(e.name, name)
	})
	if !ok {
		return -1
	}
	return i
}

// Set is a bitset over dense ids. Its width is fixed when it is made.
type Set []uint64

// Words returns the number of words a Set of width ids needs.
func Words(width int) int { return (width + 63) / 64 }

// Matrix is rows Sets of one width in one allocation.
type Matrix struct {
	words int
	bits  []uint64
}

// NewMatrix returns rows empty Sets of width ids each.
func NewMatrix(rows, width int) Matrix {
	w := Words(width)
	return Matrix{words: w, bits: make([]uint64, rows*w)}
}

// Row returns row i; writes to it write the matrix.
func (m Matrix) Row(i int) Set {
	lo := i * m.words
	return Set(m.bits[lo : lo+m.words : lo+m.words])
}

// Has reports whether i is in the set; an id out of range never is.
func (s Set) Has(i int) bool {
	return i >= 0 && i>>6 < len(s) && s[i>>6]&(1<<(uint(i)&63)) != 0
}

// Add puts i in the set and reports whether it was new.
func (s Set) Add(i int) bool {
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s[w]&b != 0 {
		return false
	}
	s[w] |= b
	return true
}

// Next returns the smallest member not below i, or -1.
func (s Set) Next(i int) int {
	w := i >> 6
	if i < 0 || w >= len(s) {
		return -1
	}
	x := s[w] &^ (1<<(uint(i)&63) - 1)
	for {
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
		if w++; w == len(s) {
			return -1
		}
		x = s[w]
	}
}

// NextIn returns the smallest member of both s and t not below i, or -1.
// s and t have one width.
func (s Set) NextIn(t Set, i int) int {
	w := i >> 6
	if i < 0 || w >= len(s) {
		return -1
	}
	x := s[w] & t[w] &^ (1<<(uint(i)&63) - 1)
	for {
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
		if w++; w == len(s) {
			return -1
		}
		x = s[w] & t[w]
	}
}

// Rank returns the number of members below i.
func (s Set) Rank(i int) int {
	w := i >> 6
	n := 0
	for _, x := range s[:w] {
		n += bits.OnesCount64(x)
	}
	return n + bits.OnesCount64(s[w]&(1<<(uint(i)&63)-1))
}

// Len returns the number of members.
func (s Set) Len() int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, x := range s {
		if x != 0 {
			return false
		}
	}
	return true
}

// Common returns the number of members s and t share. s and t have one
// width.
func (s Set) Common(t Set) int {
	n := 0
	for w, x := range s {
		n += bits.OnesCount64(x & t[w])
	}
	return n
}
