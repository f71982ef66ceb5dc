package classset

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/com"
	"repro/internal/profile"
)

// TestSetMatchesModel holds every Set operation to a sorted-slice model on
// random sets whose widths straddle word boundaries.
func TestSetMatchesModel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 63, 64, 65, 130, 200} {
		for range 50 {
			m := NewMatrix(2, width)
			s, u := m.Row(0), m.Row(1)
			var ms, mu []int
			for range rng.Intn(width + 1) {
				i := rng.Intn(width)
				if got, want := s.Add(i), !slices.Contains(ms, i); got != want {
					t.Fatalf("width %d: Add(%d) = %v, want %v", width, i, got, want)
				}
				if !slices.Contains(ms, i) {
					ms = append(ms, i)
				}
				if j := rng.Intn(width); u.Add(j) {
					mu = append(mu, j)
				}
			}
			slices.Sort(ms)
			var both []int
			for _, i := range ms {
				if slices.Contains(mu, i) {
					both = append(both, i)
				}
			}
			if s.Len() != len(ms) || s.Empty() != (len(ms) == 0) || s.Common(u) != len(both) {
				t.Fatalf("width %d: Len %d Empty %v Common %d; model %v, both %v", width, s.Len(), s.Empty(), s.Common(u), ms, both)
			}
			var got, gotBoth []int
			for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
				got = append(got, i)
			}
			for i := s.NextIn(u, 0); i >= 0; i = s.NextIn(u, i+1) {
				gotBoth = append(gotBoth, i)
			}
			if !slices.Equal(got, ms) || !slices.Equal(gotBoth, both) {
				t.Fatalf("width %d: Next walks %v, want %v; NextIn walks %v, want %v", width, got, ms, gotBoth, both)
			}
			for i := range width {
				below, _ := slices.BinarySearch(ms, i)
				if s.Has(i) != slices.Contains(ms, i) || s.Rank(i) != below {
					t.Fatalf("width %d: Has(%d) %v, Rank %d; model %v", width, i, s.Has(i), s.Rank(i), ms)
				}
			}
			if s.Has(-1) || s.Has(64*len(s)) || s.Next(64*len(s)) != -1 {
				t.Fatalf("width %d: an id out of range is a member", width)
			}
		}
	}
}

// TestNumberingIsNameOrder: ids ascend with names, the main program
// included, and every name maps back to its id.
func TestNumberingIsNameOrder(t *testing.T) {
	t.Parallel()
	reg := com.NewClassRegistry()
	for _, name := range []string{"Zeta", "alpha", "Beta", "0day"} {
		reg.Register(&com.Class{ID: com.CLSID("CLSID_" + name), Name: name, New: func() com.Object { return com.ObjectFunc(nil) }})
	}
	n := New(reg)
	want := []string{"0day", profile.MainProgram, "Beta", "Zeta", "alpha"}
	if n.Len() != len(want) || !n.Of(reg) || n.Of(com.NewClassRegistry()) {
		t.Fatalf("numbering of %d ids, want %d", n.Len(), len(want))
	}
	for id, name := range want {
		if n.Name(id) != name || n.ID(name) != id {
			t.Fatalf("id %d is %q (ID %d), want %q", id, n.Name(id), n.ID(name), name)
		}
		if (n.Class(id) == nil) != (name == profile.MainProgram) {
			t.Fatalf("id %d (%s): class %v", id, name, n.Class(id))
		}
	}
	if n.Main() != 1 || n.ID("Gamma") != -1 {
		t.Fatalf("Main() = %d, ID(Gamma) = %d", n.Main(), n.ID("Gamma"))
	}
}
