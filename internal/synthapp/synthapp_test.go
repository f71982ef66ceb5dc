package synthapp_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/binimg"
	"repro/internal/com"
	"repro/internal/synthapp"
)

// imageBytes encodes the app's binary image, the canonical fingerprint
// for determinism checks.
func imageBytes(t *testing.T, app *com.App) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binimg.BuildImage(app).Encode(&buf); err != nil {
		t.Fatalf("encoding image: %v", err)
	}
	return buf.Bytes()
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	for _, fam := range synthapp.Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			t.Parallel()
			cfg := synthapp.Config{Family: fam, Seed: 42}
			a, err := synthapp.Generate(cfg)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			b, err := synthapp.Generate(cfg)
			if err != nil {
				t.Fatalf("Generate (second): %v", err)
			}
			if !bytes.Equal(imageBytes(t, a.App), imageBytes(t, b.App)) {
				t.Fatal("same config produced different binary images")
			}
			other, err := synthapp.Generate(synthapp.Config{Family: fam, Seed: 43})
			if err != nil {
				t.Fatalf("Generate (seed 43): %v", err)
			}
			if bytes.Equal(imageBytes(t, a.App), imageBytes(t, other.App)) {
				t.Fatal("different seeds produced identical binary images")
			}
		})
	}
}

func TestGeneratedAppsValidateAndRun(t *testing.T) {
	t.Parallel()
	for _, fam := range synthapp.Families() {
		for seed := int64(0); seed < 3; seed++ {
			fam, seed := fam, seed
			t.Run(fmt.Sprintf("%s/seed%d", fam, seed), func(t *testing.T) {
				t.Parallel()
				a, err := synthapp.Generate(synthapp.Config{Family: fam, Seed: seed})
				if err != nil {
					t.Fatalf("Generate: %v", err)
				}
				if err := synthapp.Validate(a.App); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				// Every scenario must run to completion under the IDL
				// checking every call gets.
				for _, scen := range append(append([]string{}, a.Training...), a.Bigone) {
					env := com.NewEnv(a.App)
					if err := a.App.Main(env, scen, seed); err != nil {
						t.Fatalf("scenario %s: %v", scen, err)
					}
				}
				env := com.NewEnv(a.App)
				if err := a.App.Main(env, "no-such-scenario", seed); err == nil {
					t.Fatal("unknown scenario did not error")
				}
			})
		}
	}
}

func TestFamilyMetadata(t *testing.T) {
	t.Parallel()
	for _, fam := range synthapp.Families() {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			t.Parallel()
			a, err := synthapp.Generate(synthapp.Config{Family: fam, Seed: 7})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if len(a.Training) < 3 {
				t.Fatalf("only %d training scenarios", len(a.Training))
			}
			if a.Bigone != synthapp.ScenBigone {
				t.Fatalf("bigone = %q", a.Bigone)
			}
			// Exactly the three-tier family plants an infeasible default.
			if got, want := a.PlantsInfeasibleDefault, fam == synthapp.ThreeTier; got != want {
				t.Fatalf("PlantsInfeasibleDefault = %v, want %v", got, want)
			}
			if len(a.LatentPairs) == 0 {
				t.Fatal("family plants no latent activation pair")
			}
			for _, pair := range a.LatentPairs {
				creator := a.App.Classes.LookupName(pair[0])
				target := a.App.Classes.LookupName(pair[1])
				if creator == nil || target == nil {
					t.Fatalf("latent pair %v references unknown classes", pair)
				}
				declared := false
				for _, act := range creator.Activations {
					if act == target.ID {
						declared = true
					}
				}
				if !declared {
					t.Fatalf("latent target %s not in %s activations", pair[1], pair[0])
				}
				// The planted weld must never split the default
				// distribution: latent endpoints always share a Home.
				if creator.Home != target.Home {
					t.Fatalf("latent pair %v homed on %s and %s", pair, creator.Home, target.Home)
				}
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	var ce *synthapp.ConfigError
	if _, err := synthapp.Generate(synthapp.Config{Family: "no-such-family", Seed: 1}); !errors.As(err, &ce) {
		t.Fatalf("unknown family: got %v, want ConfigError", err)
	}
	if _, err := synthapp.Generate(synthapp.Config{Family: synthapp.Skewed, Seed: 1, Scale: synthapp.MaxScale + 1}); !errors.As(err, &ce) {
		t.Fatalf("oversized scale: got %v, want ConfigError", err)
	}
	if _, err := fromBytes([]byte{1, 2, 3}); !errors.As(err, &ce) {
		t.Fatalf("short bytes: got %v, want ConfigError", err)
	}
	cfg, err := fromBytes([]byte{3, 0xaa, 0xbb, 0xcc, 0, 0, 0, 0, 0x80, 9})
	if err != nil {
		t.Fatalf("fromBytes: %v", err)
	}
	if cfg.Seed < 0 {
		t.Fatalf("fromBytes produced negative seed %d", cfg.Seed)
	}
	if cfg.Scale < 1 || cfg.Scale > synthapp.MaxScale {
		t.Fatalf("fromBytes produced scale %d", cfg.Scale)
	}
	if _, err := synthapp.Generate(cfg); err != nil {
		t.Fatalf("Generate(FromBytes config): %v", err)
	}
}

func TestConfigName(t *testing.T) {
	t.Parallel()
	if got := (synthapp.Config{Family: synthapp.Skewed, Seed: 9}).Name(); got != "synth-skewed-s9" {
		t.Fatalf("Name = %q", got)
	}
	if got := (synthapp.Config{Family: synthapp.Pipeline, Seed: 3, Scale: 2}).Name(); got != "synth-pipeline-s3-x2" {
		t.Fatalf("Name = %q", got)
	}
}
