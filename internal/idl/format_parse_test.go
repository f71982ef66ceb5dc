package idl

import (
	"fmt"
	"strings"
	"testing"
)

// The parser below is the inverse of format.go: it reconstructs interface
// descriptors from the compact format strings the rewriter embeds in an
// instrumented binary's configuration record. No product path reads an
// image back without its application, so it lives here as the round-trip
// check on those bytes.

// ParseInterfaceFormat parses the encoding produced by
// (*InterfaceDesc).FormatString back into a descriptor. Field and
// parameter names are not encoded and come back empty; kinds, directions,
// IIDs, and the remotability marker round-trip exactly.
func ParseInterfaceFormat(s string) (*InterfaceDesc, error) {
	lines := strings.Split(s, "\n")
	head := strings.TrimSpace(lines[0])
	if head == "" {
		return nil, fmt.Errorf("idl: empty interface format string")
	}
	d := &InterfaceDesc{Remotable: true}
	if rest, ok := strings.CutSuffix(head, " [local]"); ok {
		d.Remotable = false
		head = rest
	}
	if strings.ContainsAny(head, " \t") {
		return nil, fmt.Errorf("idl: malformed interface head line %q", head)
	}
	d.IID = head
	d.Name = head
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		m, err := parseMethodFormat(line)
		if err != nil {
			return nil, fmt.Errorf("idl: interface %s: %w", d.IID, err)
		}
		d.Methods = append(d.Methods, *m)
	}
	return d, nil
}

// parseMethodFormat parses one "Name(in l,out y):v" method signature.
func parseMethodFormat(s string) (*MethodDesc, error) {
	open := strings.IndexByte(s, '(')
	if open <= 0 {
		return nil, fmt.Errorf("bad method format %q", s)
	}
	m := &MethodDesc{Name: s[:open]}
	p := &formatParser{src: s, off: open + 1}
	for !p.eof() && p.peek() != ')' {
		if len(m.Params) > 0 {
			if err := p.expect(','); err != nil {
				return nil, err
			}
		}
		dir, err := p.direction()
		if err != nil {
			return nil, err
		}
		t, err := p.typeDesc(0)
		if err != nil {
			return nil, err
		}
		m.Params = append(m.Params, ParamDesc{Dir: dir, Type: t})
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if err := p.expect(':'); err != nil {
		return nil, err
	}
	t, err := p.typeDesc(0)
	if err != nil {
		return nil, err
	}
	m.Result = t
	if !p.eof() {
		return nil, fmt.Errorf("trailing characters in method format %q", s)
	}
	return m, nil
}

// formatParser is a recursive-descent parser over one method signature.
type formatParser struct {
	src string
	off int
}

func (p *formatParser) eof() bool  { return p.off >= len(p.src) }
func (p *formatParser) peek() byte { return p.src[p.off] }

func (p *formatParser) expect(c byte) error {
	if p.eof() || p.src[p.off] != c {
		return fmt.Errorf("expected %q at offset %d of %q", string(c), p.off, p.src)
	}
	p.off++
	return nil
}

func (p *formatParser) direction() (ParamDir, error) {
	for _, d := range []struct {
		prefix string
		dir    ParamDir
	}{{"inout ", InOut}, {"in ", In}, {"out ", Out}} {
		if strings.HasPrefix(p.src[p.off:], d.prefix) {
			p.off += len(d.prefix)
			return d.dir, nil
		}
	}
	return 0, fmt.Errorf("expected parameter direction at offset %d of %q", p.off, p.src)
}

// maxFormatDepth bounds type nesting so corrupted metadata cannot drive
// the parser into unbounded recursion.
const maxFormatDepth = 64

func (p *formatParser) typeDesc(depth int) (*TypeDesc, error) {
	if depth > maxFormatDepth {
		return nil, fmt.Errorf("type nesting exceeds %d levels", maxFormatDepth)
	}
	if p.eof() {
		return nil, fmt.Errorf("truncated type in %q", p.src)
	}
	c := p.src[p.off]
	p.off++
	switch c {
	case 'v':
		return TVoid, nil
	case 'b':
		return TBool, nil
	case 'l':
		return TInt32, nil
	case 'h':
		return TInt64, nil
	case 'd':
		return TFloat64, nil
	case 's':
		return TString, nil
	case 'y':
		return TBytes, nil
	case 'p':
		return TOpaque, nil
	case 'I':
		iid := ""
		if !p.eof() && p.peek() == '<' {
			end := strings.IndexByte(p.src[p.off:], '>')
			if end < 0 {
				return nil, fmt.Errorf("unterminated interface id in %q", p.src)
			}
			iid = p.src[p.off+1 : p.off+end]
			p.off += end + 1
		}
		return InterfaceType(iid), nil
	case 'S':
		if err := p.expect('{'); err != nil {
			return nil, err
		}
		t := &TypeDesc{Kind: KindStruct}
		for !p.eof() && p.peek() != '}' {
			if len(t.Fields) > 0 {
				if err := p.expect(','); err != nil {
					return nil, err
				}
			}
			ft, err := p.typeDesc(depth + 1)
			if err != nil {
				return nil, err
			}
			t.Fields = append(t.Fields, FieldDesc{Type: ft})
		}
		if err := p.expect('}'); err != nil {
			return nil, err
		}
		return t, nil
	case 'a':
		if err := p.expect('('); err != nil {
			return nil, err
		}
		elem, err := p.typeDesc(depth + 1)
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &TypeDesc{Kind: KindArray, Elem: elem}, nil
	default:
		return nil, fmt.Errorf("unknown type code %q at offset %d of %q", string(c), p.off-1, p.src)
	}
}

// sampleRegistry assembles descriptors covering every type code the format
// grammar can emit.
func sampleRegistry() *Registry {
	r := NewRegistry()
	r.Register(&InterfaceDesc{
		IID: "IKitchen", Name: "IKitchen", Remotable: true,
		Methods: []MethodDesc{
			{Name: "Mix", Params: []ParamDesc{
				{Name: "a", Dir: In, Type: TInt32},
				{Name: "b", Dir: Out, Type: TString},
				{Name: "c", Dir: InOut, Type: TBytes},
			}, Result: TInt64},
			{Name: "Bake", Params: []ParamDesc{
				{Name: "pan", Dir: In, Type: Struct("Pan",
					Field("w", TFloat64),
					Field("deep", TBool),
					Field("racks", Array(TInt32)),
				)},
			}, Result: TVoid},
			{Name: "Serve", Params: []ParamDesc{
				{Name: "plates", Dir: In, Type: Array(Struct("Plate", Field("id", TInt32)))},
				{Name: "to", Dir: In, Type: InterfaceType("IGuest")},
				{Name: "anyone", Dir: In, Type: InterfaceType("")},
			}, Result: InterfaceType("IReceipt")},
		},
	})
	// The shape the static analyzer classifies as non-remotable although
	// its marker is remotable: an opaque handle nested in a struct's
	// array, beside a remotable method.
	r.Register(&InterfaceDesc{
		IID: "ISpriteBuf", Name: "ISpriteBuf", Remotable: true,
		Methods: []MethodDesc{
			{Name: "Lock", Params: []ParamDesc{
				{Name: "bag", Dir: InOut, Type: Struct("Bag", Field("handles", Array(TOpaque)))},
			}, Result: TOpaque},
			{Name: "Size", Result: TInt32},
		},
	})
	r.Register(&InterfaceDesc{
		IID: "ILocalOnly", Name: "ILocalOnly", Remotable: false,
		Methods: []MethodDesc{
			{Name: "Touch", Params: []ParamDesc{{Name: "h", Dir: In, Type: TOpaque}}, Result: TVoid},
		},
	})
	return r
}

func TestParseInterfaceFormatRoundTrip(t *testing.T) {
	t.Parallel()
	reg := sampleRegistry()
	for _, iid := range reg.IIDs() {
		orig := reg.Lookup(iid)
		parsed, err := ParseInterfaceFormat(orig.FormatString())
		if err != nil {
			t.Fatalf("%s: %v", iid, err)
		}
		if parsed.IID != orig.IID {
			t.Errorf("%s: parsed IID %q", iid, parsed.IID)
		}
		if parsed.Remotable != orig.Remotable {
			t.Errorf("%s: parsed Remotable=%v, want %v", iid, parsed.Remotable, orig.Remotable)
		}
		if got, want := parsed.FormatString(), orig.FormatString(); got != want {
			t.Errorf("%s: round trip diverged\n got %q\nwant %q", iid, got, want)
		}
		if len(parsed.Methods) != len(orig.Methods) {
			t.Fatalf("%s: parsed %d methods, want %d", iid, len(parsed.Methods), len(orig.Methods))
		}
		// The static analyzer classifies an interface by its marker and
		// each parameter's direction and remotability; a parsed
		// descriptor must classify as its original does.
		for i, m := range orig.Methods {
			pm := parsed.Methods[i]
			if len(pm.Params) != len(m.Params) || remotable(pm.Result) != remotable(m.Result) {
				t.Fatalf("%s.%s: parsed %s", iid, m.Name, pm.FormatString())
			}
			for j, p := range m.Params {
				if pp := pm.Params[j]; pp.Dir != p.Dir || pp.Type.Remotable() != p.Type.Remotable() {
					t.Errorf("%s.%s param %d: parsed %v %v, want %v %v",
						iid, m.Name, j, pp.Dir, pp.Type.Remotable(), p.Dir, p.Type.Remotable())
				}
			}
		}
	}
}

func remotable(t *TypeDesc) bool { return t == nil || t.Remotable() }

func TestParseInterfaceFormatErrors(t *testing.T) {
	t.Parallel()
	cases := []string{
		"",
		"two words\nMix():v",
		"I [weird]\nMix():v",
		"I\nMix",
		"I\nMix(:v",
		"I\nMix():",
		"I\nMix(in q):v",
		"I\nMix(in S{l):v",
		"I\nMix(in a(l):v",
		"I\nMix(in I<):v",
		"I\nMix(in l):v trailing",
	}
	for _, src := range cases {
		if _, err := ParseInterfaceFormat(src); err == nil {
			t.Errorf("ParseInterfaceFormat(%q) = nil error, want failure", src)
		}
	}
}

func TestParseInterfaceFormatDepthLimit(t *testing.T) {
	t.Parallel()
	// A deeply nested array type must be rejected, not overflow the stack.
	src := "I\nMix(in " + strings.Repeat("a(", 200) + "l" + strings.Repeat(")", 200) + "):v"
	if _, err := ParseInterfaceFormat(src); err == nil {
		t.Error("deeply nested format accepted, want depth-limit error")
	}
}
