package binimg

import (
	"fmt"
	"strings"

	"repro/internal/com"
)

// Record sections.
//
// BuildImage writes three kinds of per-class sections, told apart by a
// name prefix and keyed by the owner that follows it: code (CodePrefix),
// activation records (RelocPrefix, see reloc.go) and state records
// (StatePrefix, see state.go). How they are named and framed is known
// here and nowhere else: every static scanner reads an image through
// CodeSections, Activations or States, each of which decodes only its own
// kind — and decodes afresh on every call, because callers may append
// sections to an image between calls. A record section that names no
// owner and a malformed payload are errors, never guesses.

// CodePrefix is the naming convention for component code sections: one
// ".text$<CLSID>" section per component class.
const CodePrefix = ".text$"

// owner reports whether the section is a record of the kind the prefix
// names, and whose.
func (s Section) owner(prefix string) (owner string, ok bool, err error) {
	owner, ok = strings.CutPrefix(s.Name, prefix)
	if ok && owner == "" {
		return "", false, fmt.Errorf("binimg: section %s names no owner", s.Name)
	}
	return owner, ok, nil
}

// CodeSections returns the total code size per CLSID and, in image order,
// the names of the sections that are neither code nor activation nor
// state records.
func (im *Image) CodeSections() (code map[com.CLSID]int, other []string, err error) {
	code = make(map[com.CLSID]int)
	for _, s := range im.Sections {
		owner, ok, err := s.owner(CodePrefix)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case ok:
			code[com.CLSID(owner)] += len(s.Data)
		case !strings.HasPrefix(s.Name, RelocPrefix) && !strings.HasPrefix(s.Name, StatePrefix):
			other = append(other, s.Name)
		}
	}
	return code, other, nil
}

// Activation is one owner's activation record: whether the owner computes
// CLSIDs at run time, and every statically known activation target.
type Activation struct {
	Dynamic bool
	Targets []com.CLSID
}

// Activations returns the activation record of every owner — a CLSID, or
// MainRelocName for the main program. Split records for one owner merge.
func (im *Image) Activations() (map[string]Activation, error) {
	acts := make(map[string]Activation)
	for _, s := range im.Sections {
		owner, ok, err := s.owner(RelocPrefix)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		dynamic, targets, err := decodeReloc(s.Data)
		if err != nil {
			return nil, fmt.Errorf("binimg: section %s: %w", s.Name, err)
		}
		act := acts[owner]
		act.Dynamic = act.Dynamic || dynamic
		act.Targets = append(act.Targets, targets...)
		acts[owner] = act
	}
	return acts, nil
}

// States returns the state descriptor of every class that ships one. A
// class has exactly one state declaration: a second record is an error.
func (im *Image) States() (map[com.CLSID]*com.StateDesc, error) {
	states := make(map[com.CLSID]*com.StateDesc)
	for _, s := range im.Sections {
		owner, ok, err := s.owner(StatePrefix)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		desc, err := decodeState(s.Data)
		if err != nil {
			return nil, fmt.Errorf("binimg: section %s: %w", s.Name, err)
		}
		if states[com.CLSID(owner)] != nil {
			return nil, fmt.Errorf("binimg: duplicate state record for %s", owner)
		}
		states[com.CLSID(owner)] = desc
	}
	return states, nil
}
