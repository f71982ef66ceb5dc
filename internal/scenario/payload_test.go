package scenario

import (
	"runtime"
	"testing"

	"repro/internal/classify"
	"repro/internal/com"
	"repro/internal/dist"
	"repro/internal/idl"
)

// TestZeroPageNeverWritten runs every scenario of the four apps whose
// payloads are idl.Zeros views of one shared page — profiling, the default
// distribution, and a split Coign distribution with result caching on —
// and checks that nothing wrote into the page.
func TestZeroPageNeverWritten(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full suite execution")
	}
	runs := map[string][]string{"quickstart": {"default"}}
	for _, name := range Apps() {
		runs[name] = ForApp(name)
	}
	for name, scenarios := range runs {
		app, err := NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scenarios {
			clf := classify.New(classify.IFCB, 0)
			prof, err := dist.Run(dist.Config{App: app, Scenario: sc, Mode: dist.ModeProfiling, Classifier: clf})
			if err != nil {
				t.Fatalf("%s profiling: %v", sc, err)
			}
			// Alternate classifications between the machines so calls
			// cross and the cache answers some of them.
			split := make(map[string]com.Machine)
			for i, ci := range prof.Profile.Classifications {
				split[ci.ID] = com.Machine(i % 2)
			}
			for _, cfg := range []dist.Config{
				{App: app, Scenario: sc, Mode: dist.ModeDefault, Classifier: clf},
				{App: app, Scenario: sc, Mode: dist.ModeCoign, Classifier: clf,
					Distribution: split, EnableCaching: true},
			} {
				if _, err := dist.Run(cfg); err != nil {
					t.Fatalf("%s mode %d: %v", sc, cfg.Mode, err)
				}
			}
		}
	}
	for i, b := range idl.Zeros(256 << 10).Bytes {
		if b != 0 {
			t.Fatalf("zero page byte %d = %#x after the app runs", i, b)
		}
	}
}

// TestBigoneAllocBudget guards what one bigone run of each paper app
// allocates in total, in the profiling, default and bare modes. Bytes:
// payloads are sizes, not buffers, so a run stays well under 16 MB (it
// was ~115 MB for octarine and photodraw while every payload was a fresh
// zeroed slice). Objects: a trapped call allocates nothing, and an
// instantiation only what the component's constructor does, so each run
// stays within 5 % of what it measured when that landed (octarine's
// default run was 67.9 k objects while every instantiation built its
// descriptor, id and path strings, and 16.4 k while each still allocated
// its Instance and a new context two strings).
// Not parallel: TotalAlloc and Mallocs are process-wide.
//
//lint:allow paralleltest TotalAlloc is process-wide
func TestBigoneAllocBudget(t *testing.T) {
	const budget = 16 << 20
	// Measured (profiling / default / bare): octarine 14,482 / 14,156 /
	// 13,775, photodraw 4,235 / 3,949 / 3,824, benefits 3,738 / 3,375 /
	// 3,302; the race build counts up to 1 % more. Each budget is its
	// count + 5 %. The profiling runs read 17,459, 4,875 and 3,966 while
	// the profile kept string-keyed maps and two maps per edge.
	objects := map[string]map[dist.Mode]uint64{
		"octarine":  {dist.ModeProfiling: 15_210, dist.ModeDefault: 14_860, dist.ModeBare: 14_460},
		"photodraw": {dist.ModeProfiling: 4_450, dist.ModeDefault: 4_150, dist.ModeBare: 4_020},
		"benefits":  {dist.ModeProfiling: 3_930, dist.ModeDefault: 3_540, dist.ModeBare: 3_470},
	}
	for _, name := range Apps() {
		app, err := NewApp(name)
		if err != nil {
			t.Fatal(err)
		}
		big, err := BigoneForApp(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []dist.Mode{dist.ModeProfiling, dist.ModeDefault, dist.ModeBare} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := dist.Run(dist.Config{App: app, Scenario: big, Mode: mode,
				Classifier: classify.New(classify.IFCB, 0)})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s mode %d: %v", big, mode, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Errorf("%s mode %d allocated %.1f MB, budget %d MB",
					big, mode, float64(got)/(1<<20), budget>>20)
			}
			want, ok := objects[name][mode]
			if !ok {
				t.Fatalf("no object budget for %s mode %d", name, mode)
			}
			if got := after.Mallocs - before.Mallocs; got > want {
				t.Errorf("%s mode %d allocated %d objects, budget %d", big, mode, got, want)
			}
		}
	}
}
