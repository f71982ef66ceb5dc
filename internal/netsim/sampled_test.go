package netsim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// freshSample is the profile a session with the given seed took before the
// process kept its samples: a new source at seed+7 over DefaultSampleSizes.
func freshSample(t *testing.T, m *Model, seed int64, samples int) *Profile {
	t.Helper()
	p, err := SampleModel(m, rand.New(rand.NewSource(seed+7)), DefaultSampleSizes, samples)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSampledIsAFreshSample holds Sampled to a fresh sample for every model,
// seed and count, and checks that it keys on what the sample depends on.
// Not parallel: the pointer checks need no other test evicting slots
// between two calls.
//
//lint:allow paralleltest the ring is process-wide
func TestSampledIsAFreshSample(t *testing.T) {
	for name, m := range Models() {
		for _, seed := range []int64{1, 2, 7} {
			for _, n := range []int{1, 25} {
				got, err := Sampled(m, seed, n)
				if err != nil {
					t.Fatal(err)
				}
				if want := freshSample(t, m, seed, n); !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d count %d: Sampled = %v, fresh sample %v", name, seed, n, got, want)
				}
				if again, _ := Sampled(m, seed, n); again != got {
					t.Errorf("%s seed %d count %d: second call sampled again", name, seed, n)
				}
			}
		}
	}

	// The key is the model's value: an equal copy hits, and the same
	// address holding a changed model misses.
	orig, _ := Sampled(TenBaseT, 1, 25)
	c := *TenBaseT
	if p, _ := Sampled(&c, 1, 25); p != orig {
		t.Error("an equal copy of the model sampled again")
	}
	c.Jitter = 0.2
	changed, _ := Sampled(&c, 1, 25)
	if changed == orig {
		t.Error("a model with another Jitter got the old model's sample")
	}
	if want := freshSample(t, &c, 1, 25); !reflect.DeepEqual(changed, want) {
		t.Errorf("changed model: Sampled = %v, fresh sample %v", changed, want)
	}

	// The sample count is part of the key: the ablation compares 5 with 25.
	p5, _ := Sampled(TenBaseT, 1, 5)
	p25, _ := Sampled(TenBaseT, 1, 25)
	if p5 == p25 {
		t.Error("counts 5 and 25 share one sample")
	}
	if want := freshSample(t, TenBaseT, 1, 5); !reflect.DeepEqual(p5, want) {
		t.Errorf("count 5: Sampled = %v, fresh sample %v", p5, want)
	}
}

// TestSampledAllocs holds a hit to no allocation. Not parallel:
// AllocsPerRun counts every goroutine's allocations.
//
//lint:allow paralleltest AllocsPerRun is process-wide
func TestSampledAllocs(t *testing.T) {
	if _, err := Sampled(TenBaseT, 1, 25); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Sampled(TenBaseT, 1, 25); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a hit allocates %v objects, want 0", n)
	}
}

// TestSampledConcurrent has goroutines ask for more keys than the ring
// holds, so hits, misses and evictions interleave (run under -race).
func TestSampledConcurrent(t *testing.T) {
	t.Parallel()
	type key struct {
		m    *Model
		seed int64
	}
	var keys []key
	for _, m := range Models() {
		for seed := int64(100); seed < 104; seed++ {
			keys = append(keys, key{m, seed})
		}
	}
	if len(keys) <= sampledSlots {
		t.Fatalf("%d keys do not overflow %d slots", len(keys), sampledSlots)
	}
	want := make([]*Profile, len(keys))
	for i, k := range keys {
		want[i] = freshSample(t, k.m, k.seed, 3)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for j := range keys {
					i := (j + 3*g + r) % len(keys)
					got, err := Sampled(keys[i].m, keys[i].seed, 3)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s seed %d: Sampled = %v, fresh sample %v", keys[i].m.Name, keys[i].seed, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestSampledRefusesNoSamples(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, -1} {
		if p, err := Sampled(TenBaseT, 1, n); err == nil || p != nil {
			t.Errorf("Sampled(count %d) = %v, %v; want an error", n, p, err)
		}
	}
	sampled.Lock()
	defer sampled.Unlock()
	for i, k := range sampled.keys {
		if sampled.profs[i] != nil && k.samples < 1 {
			t.Errorf("slot %d holds a sample of count %d", i, k.samples)
		}
	}
}
