package synthapp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/binimg"
	"repro/internal/synthapp"
)

// FuzzSynthApp feeds arbitrary config bytes into the generator. The
// contract: fromBytes either rejects the input with a typed ConfigError
// or yields a config for which Generate must succeed, the resulting app
// must be Validate-clean, and regeneration must be byte-identical.
func FuzzSynthApp(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 42, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2})
	f.Add([]byte{3, 7, 7, 7, 7, 7, 7, 7, 7, 3})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xfe})
	f.Add([]byte{5, 9, 9, 9, 9, 9, 9, 9, 9, 0xff})
	f.Add([]byte{})
	f.Add([]byte{0xee})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := fromBytes(data)
		if err != nil {
			var ce *synthapp.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("fromBytes returned untyped error %v", err)
			}
			return
		}
		a, err := synthapp.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", cfg, err)
		}
		if err := synthapp.Validate(a.App); err != nil {
			t.Fatalf("Validate(%+v): %v", cfg, err)
		}
		b, err := synthapp.Generate(cfg)
		if err != nil {
			t.Fatalf("Generate(%+v) second run: %v", cfg, err)
		}
		var ab, bb bytes.Buffer
		if err := binimg.BuildImage(a.App).Encode(&ab); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := binimg.BuildImage(b.App).Encode(&bb); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("config %+v regenerated a different image", cfg)
		}
	})
}

// fromBytes derives a Config from raw bytes, the fuzzing entry point: a
// family selector byte, a little-endian seed, and a scale byte. Inputs
// shorter than the 10-byte header are rejected with a ConfigError.
func fromBytes(data []byte) (synthapp.Config, error) {
	if len(data) < 10 {
		return synthapp.Config{}, &synthapp.ConfigError{Field: "bytes", Reason: fmt.Sprintf("need 10 bytes, got %d", len(data))}
	}
	fams := synthapp.Families()
	seed := int64(binary.LittleEndian.Uint64(data[1:9]))
	if seed < 0 {
		seed = -(seed + 1) // keep the full bit pattern reachable, positively
	}
	return synthapp.Config{
		Family: fams[int(data[0])%len(fams)],
		Seed:   seed,
		Scale:  1 + int(data[9])%synthapp.MaxScale,
	}, nil
}
