package octarine

import (
	"fmt"

	"repro/internal/com"
	"repro/internal/idl"
)

// Music engine. Sheet-music documents are entirely client-side: the music
// template is small, the editor swarm renders through the opaque device
// context, and nothing profits from the server (paper Table 4: 0% savings
// for o_newmus).

const (
	staves          = 8
	measuresPerLine = 12
)

func registerMusic(b *builder) {
	b.iface(&idl.InterfaceDesc{
		IID: iMusic, Name: iMusic, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Build", Params: []idl.ParamDesc{
				{Name: "reader", Dir: idl.In, Type: idl.InterfaceType(iReader)},
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
			}, Result: idl.TInt32},
		},
	})
	b.iface(&idl.InterfaceDesc{
		IID: iStaff, Name: iStaff, Remotable: true,
		Methods: []idl.MethodDesc{
			{Name: "Fill", Params: []idl.ParamDesc{
				{Name: "canvas", Dir: idl.In, Type: idl.InterfaceType(iWidget)},
				{Name: "measures", Dir: idl.In, Type: idl.TInt32},
				{Name: "notes", Dir: idl.In, Type: idl.TBytes},
			}, Result: idl.TInt32},
		},
	})

	b.class("MusicModel", []string{iMusic}, nil, 52<<10, newMusicModel)
	b.class("Staff", []string{iStaff}, nil, 14<<10, newStaff)
	b.class("Measure", []string{iCell}, nil, 5<<10, newMusicLeaf)
	b.class("NoteRun", []string{iCell}, nil, 4<<10, newMusicLeaf)
	b.class("Clef", []string{iCell}, nil, 2<<10, newMusicLeaf)
	b.class("BeamGroup", []string{iCell}, nil, 3<<10, newMusicLeaf)
	b.class("Lyric", []string{iCell}, nil, 3<<10, newMusicLeaf)
	b.class("ChordSymbol", []string{iCell}, nil, 3<<10, newMusicLeaf)
	b.class("Dynamics", []string{iCell}, nil, 2<<10, newMusicLeaf)
	b.class("MusicLayout", []string{iCell}, nil, 18<<10, newMusicLeaf)
}

// newMusicModel builds the score: staves, which fill themselves with
// measures and note runs.
func newMusicModel() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		if c.Method != "Build" {
			return nil, fmt.Errorf("MusicModel: bad method %s", c.Method)
		}
		reader := c.Args[0].Iface.(*com.Interface)
		canvas := c.Args[1].Iface.(*com.Interface)
		// Pull the parsed music template: the full score content comes to
		// the model and flows on to the staves, so nothing gains from
		// moving to the server (music documents show 0% savings, Table 4).
		var score []byte
		for p := 0; p < 2; p++ {
			out, err := c.Invoke(reader, "PageContent", idl.Int32(int32(p)))
			if err != nil {
				return nil, err
			}
			score = append(score, out[0].Bytes...)
		}
		if _, err := c.Invoke(reader, "GetRun", idl.Int32(0), idl.Int32(8*1024)); err != nil {
			return nil, err
		}
		// Layout helper and ornaments.
		for _, orn := range []com.CLSID{"CLSID_MusicLayout", "CLSID_Clef", "CLSID_Dynamics"} {
			inst, err := c.Create(orn)
			if err != nil {
				return nil, err
			}
			itf, err := c.Env.Query(inst, iCell)
			if err != nil {
				return nil, err
			}
			if _, err := c.Invoke(itf, "SetCells", idl.Zeros(128)); err != nil {
				return nil, err
			}
		}
		total := 0
		for i := 0; i < staves; i++ {
			staff, err := c.Create("CLSID_Staff")
			if err != nil {
				return nil, err
			}
			total++
			sitf, err := c.Env.Query(staff, iStaff)
			if err != nil {
				return nil, err
			}
			notes := score[len(score)/staves*i : len(score)/staves*(i+1)]
			out, err := c.Invoke(sitf, "Fill",
				idl.IfacePtr(canvas), idl.Int32(measuresPerLine), idl.ByteBuf(notes))
			if err != nil {
				return nil, err
			}
			total += int(out[0].AsInt())
		}
		c.Compute(costMusic * 4)
		return []idl.Value{idl.Int32(int32(total))}, nil
	})
}

// newStaff fills one staff with measures; every other measure gets a note
// run, and beams and lyrics decorate some of them.
func newStaff() com.Object {
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		if c.Method != "Fill" {
			return nil, fmt.Errorf("Staff: bad method %s", c.Method)
		}
		canvas := c.Args[0].Iface.(*com.Interface)
		measures := int(c.Args[1].AsInt())
		notes := len(c.Args[2].Bytes)
		_ = notes
		created := 0
		mk := func(clsid com.CLSID, payload int) error {
			inst, err := c.Create(clsid)
			if err != nil {
				return err
			}
			created++
			itf, err := c.Env.Query(inst, iCell)
			if err != nil {
				return err
			}
			if _, err := c.Invoke(itf, "SetCells", idl.Zeros(payload)); err != nil {
				return err
			}
			_, err = c.Invoke(itf, "Draw", idl.IfacePtr(canvas))
			return err
		}
		for m := 0; m < measures; m++ {
			if err := mk("CLSID_Measure", 192); err != nil {
				return nil, err
			}
			if m%2 == 0 {
				if err := mk("CLSID_NoteRun", 320); err != nil {
					return nil, err
				}
			}
			if m%3 == 0 {
				if err := mk("CLSID_BeamGroup", 96); err != nil {
					return nil, err
				}
			}
			if m%4 == 0 {
				if err := mk("CLSID_Lyric", 64); err != nil {
					return nil, err
				}
			}
		}
		c.Compute(costMusic)
		return []idl.Value{idl.Int32(int32(created))}, nil
	})
}

// newMusicLeaf is the shared behaviour of music ornaments: accept a
// payload, draw through the opaque context.
func newMusicLeaf() com.Object {
	size := 0
	return com.ObjectFunc(func(c *com.Call) ([]idl.Value, error) {
		switch c.Method {
		case "SetCells":
			size = len(c.Args[0].Bytes)
			c.Compute(costMusic / 2)
			return []idl.Value{idl.Int32(int32(size))}, nil
		case "Draw":
			canvas := c.Args[0].Iface.(*com.Interface)
			if _, err := c.Invoke(canvas, "Render", idl.OpaquePtr("hdc")); err != nil {
				return nil, err
			}
			return []idl.Value{idl.Int32(int32(size))}, nil
		}
		return nil, fmt.Errorf("music leaf: bad method %s", c.Method)
	})
}

// newMusicDocument creates a sheet-music document from the music template.
func (s *session) newMusicDocument() error {
	ritf, err := s.openReader(kindMusic, 2)
	if err != nil {
		return err
	}
	model, err := s.create("CLSID_MusicModel")
	if err != nil {
		return err
	}
	mitf, err := s.env.Query(model, iMusic)
	if err != nil {
		return err
	}
	_, err = s.call(mitf, "Build", idl.IfacePtr(ritf), idl.IfacePtr(s.canvas))
	return err
}
