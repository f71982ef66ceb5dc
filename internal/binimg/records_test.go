package binimg

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/com"
	"repro/internal/idl"
)

// recordsApp exercises every record kind BuildImage writes: a dynamic
// creator with targets, a class with a state descriptor, a class with
// neither, and main-program activations.
func recordsApp() *com.App {
	classes := com.NewClassRegistry()
	classes.Register(&com.Class{
		ID: "CLSID_A", Name: "A", CodeBytes: 2048,
		Activations: []com.CLSID{"CLSID_B", "CLSID_C"}, DynamicActivation: true,
		New: func() com.Object { return nil },
	})
	classes.Register(&com.Class{
		ID: "CLSID_B", Name: "B",
		State: &com.StateDesc{Bytes: 64, Reads: []string{"Get"}, Writes: []string{"Put"}},
		New:   func() com.Object { return nil },
	})
	classes.Register(&com.Class{
		ID: "CLSID_C", Name: "C", CodeBytes: 512,
		New: func() com.Object { return nil },
	})
	return &com.App{
		Name:            "records",
		Classes:         classes,
		Interfaces:      idl.NewRegistry(),
		MainActivations: []com.CLSID{"CLSID_A"},
	}
}

// records is the decoded view of one image: all three decoders' results,
// or the first error any of them returned.
type records struct {
	Code        map[com.CLSID]int
	Other       []string
	Activations map[string]Activation
	States      map[com.CLSID]*com.StateDesc
}

func decodeAll(im *Image) (r records, err error) {
	if r.Code, r.Other, err = im.CodeSections(); err != nil {
		return r, err
	}
	if r.Activations, err = im.Activations(); err != nil {
		return r, err
	}
	r.States, err = im.States()
	return r, err
}

func TestRecordsRoundTripsBuildImage(t *testing.T) {
	t.Parallel()
	got, err := decodeAll(BuildImage(recordsApp()))
	if err != nil {
		t.Fatal(err)
	}
	want := records{
		Code: map[com.CLSID]int{"CLSID_A": 2048, "CLSID_B": 1024, "CLSID_C": 512},
		Activations: map[string]Activation{
			"CLSID_A":     {Dynamic: true, Targets: []com.CLSID{"CLSID_B", "CLSID_C"}},
			MainRelocName: {Targets: []com.CLSID{"CLSID_A"}},
		},
		States: map[com.CLSID]*com.StateDesc{
			"CLSID_B": {Bytes: 64, Reads: []string{"Get"}, Writes: []string{"Put"}},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records = %+v, want %+v", got, want)
	}
}

func TestRecords(t *testing.T) {
	t.Parallel()
	state := EncodeState(&com.StateDesc{Bytes: 8})
	cases := []struct {
		name     string
		sections []Section
		wantErr  string // substring; empty means the decode must succeed
		check    func(t *testing.T, r records)
	}{
		{
			name: "split activation records merge",
			sections: []Section{
				{Name: RelocPrefix + "CLSID_C", Data: EncodeReloc(false, []com.CLSID{"CLSID_A"})},
				{Name: RelocPrefix + "CLSID_C", Data: EncodeReloc(true, []com.CLSID{"CLSID_B"})},
			},
			check: func(t *testing.T, r records) {
				want := Activation{Dynamic: true, Targets: []com.CLSID{"CLSID_A", "CLSID_B"}}
				if got := r.Activations["CLSID_C"]; !reflect.DeepEqual(got, want) {
					t.Errorf("merged record = %+v, want %+v", got, want)
				}
			},
		},
		{
			name:     "main owner merges with the built record",
			sections: []Section{{Name: RelocPrefix + MainRelocName, Data: EncodeReloc(false, []com.CLSID{"CLSID_C"})}},
			check: func(t *testing.T, r records) {
				want := []com.CLSID{"CLSID_A", "CLSID_C"}
				if got := r.Activations[MainRelocName].Targets; !reflect.DeepEqual(got, want) {
					t.Errorf("main targets = %v, want %v", got, want)
				}
			},
		},
		{
			name:     "split code sections add up",
			sections: []Section{{Name: CodePrefix + "CLSID_C", Data: make([]byte, 100)}},
			check: func(t *testing.T, r records) {
				if r.Code["CLSID_C"] != 612 {
					t.Errorf("code bytes = %d, want 612", r.Code["CLSID_C"])
				}
			},
		},
		{
			name: "unknown-kind sections listed in image order",
			sections: []Section{
				{Name: ".rsrc", Data: []byte("icons")},
				{Name: "text$CLSID_A"},
			},
			check: func(t *testing.T, r records) {
				if want := []string{".rsrc", "text$CLSID_A"}; !reflect.DeepEqual(r.Other, want) {
					t.Errorf("other = %v, want %v", r.Other, want)
				}
			},
		},
		{name: "empty code owner", sections: []Section{{Name: CodePrefix}}, wantErr: "names no owner"},
		{name: "empty activation owner", sections: []Section{{Name: RelocPrefix, Data: EncodeReloc(false, nil)}}, wantErr: "names no owner"},
		{name: "empty state owner", sections: []Section{{Name: StatePrefix, Data: state}}, wantErr: "names no owner"},
		{name: "activation bad header", sections: []Section{{Name: RelocPrefix + "CLSID_C", Data: []byte("activate CLSID_A\n")}}, wantErr: "header"},
		{name: "activation unknown directive", sections: []Section{{Name: RelocPrefix + "CLSID_C", Data: []byte("coign-reloc v1\ndeactivate X\n")}}, wantErr: "unknown activation-record directive"},
		{name: "activation empty target", sections: []Section{{Name: RelocPrefix + "CLSID_C", Data: []byte("coign-reloc v1\nactivate \n")}}, wantErr: "empty target"},
		{name: "state bad header", sections: []Section{{Name: StatePrefix + "CLSID_C", Data: []byte("bytes 8\n")}}, wantErr: "header"},
		{name: "state unknown directive", sections: []Section{{Name: StatePrefix + "CLSID_C", Data: []byte("coign-state v1\nbytes 8\nmutate X\n")}}, wantErr: "unknown state-record directive"},
		{name: "state bad size", sections: []Section{{Name: StatePrefix + "CLSID_C", Data: []byte("coign-state v1\nbytes -1\n")}}, wantErr: "bad size"},
		{name: "state missing size", sections: []Section{{Name: StatePrefix + "CLSID_C", Data: []byte("coign-state v1\nread Get\n")}}, wantErr: "missing bytes"},
		{name: "duplicate state", sections: []Section{{Name: StatePrefix + "CLSID_B", Data: state}}, wantErr: "duplicate state record for CLSID_B"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			im := BuildImage(recordsApp())
			im.Sections = append(im.Sections, c.sections...)
			r, err := decodeAll(im)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, r)
		})
	}
}

// FuzzRecords appends one arbitrary section to a built image. The three
// record decoders must return records or an error, never panic, and
// whatever decodes must survive being written back the way BuildImage
// writes it.
func FuzzRecords(f *testing.F) {
	f.Add(RelocPrefix+MainRelocName, []byte("coign-reloc v1\nactivate CLSID_C\n"))
	f.Add(RelocPrefix+"CLSID_C", []byte("coign-reloc v1\ndynamic\nactivate CLSID_A\n"))
	f.Add(RelocPrefix, []byte("coign-reloc v1\n"))
	f.Add(RelocPrefix+"CLSID_C", []byte("coign-reloc v1\r\nactivate CLSID_A\n"))
	f.Add(StatePrefix+"CLSID_C", []byte("coign-state v1\nbytes 007\nread Get\nwrite Put\n"))
	f.Add(StatePrefix+"CLSID_B", []byte("coign-state v1\nbytes 0\n"))
	f.Add(StatePrefix+"CLSID_C", []byte("coign-state v1\nbytes 1\nbytes 2\n"))
	f.Add(CodePrefix+"CLSID_New", []byte{0x00, 0xff, 0xfe})
	f.Add(CodePrefix, []byte{})
	f.Add(".rsrc", []byte("icons"))

	f.Fuzz(func(t *testing.T, name string, payload []byte) {
		im := BuildImage(recordsApp())
		im.Sections = append(im.Sections, Section{Name: name, Data: payload})
		got, err := decodeAll(im)
		if err != nil {
			return
		}
		re := &Image{}
		for clsid, size := range got.Code {
			re.Sections = append(re.Sections, Section{Name: CodePrefix + string(clsid), Data: make([]byte, size)})
		}
		for owner, act := range got.Activations {
			re.Sections = append(re.Sections, Section{Name: RelocPrefix + owner, Data: EncodeReloc(act.Dynamic, act.Targets)})
		}
		for clsid, desc := range got.States {
			re.Sections = append(re.Sections, Section{Name: StatePrefix + string(clsid), Data: EncodeState(desc)})
		}
		for _, other := range got.Other {
			re.Sections = append(re.Sections, Section{Name: other})
		}
		again, err := decodeAll(re)
		if err != nil {
			t.Fatalf("re-encoded records failed to decode: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("records changed across a round trip:\n got  %+v\n then %+v", got, again)
		}
	})
}
