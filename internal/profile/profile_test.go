package profile

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/netsim"
)

func TestBucketIndexRanges(t *testing.T) {
	t.Parallel()
	cases := []struct{ size, want int }{
		{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{63, 6}, {64, 7}, {1024, 11}, {1 << 20, 21},
	}
	for _, c := range cases {
		if got := BucketIndex(c.size); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestBucketRepresentativeWithinRange(t *testing.T) {
	t.Parallel()
	if BucketRepresentative(0) != 0 {
		t.Error("bucket 0 rep nonzero")
	}
	for idx := 1; idx < 30; idx++ {
		rep := BucketRepresentative(idx)
		if BucketIndex(rep) != idx {
			t.Errorf("rep %d of bucket %d falls in bucket %d", rep, idx, BucketIndex(rep))
		}
	}
}

func TestPropertyBucketRoundTrip(t *testing.T) {
	t.Parallel()
	// Every size lands in a bucket whose range contains it, and ranges grow
	// exponentially: rep(idx+1) is about 2x rep(idx).
	f := func(sz uint32) bool {
		s := int(sz >> 2)
		idx := BucketIndex(s)
		if s == 0 {
			return idx == 0
		}
		lo := 1 << (idx - 1)
		hi := 1 << idx
		return s >= lo && s < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBucketCounts(t *testing.T) {
	t.Parallel()
	var b BucketCounts
	b.Add(100, 3)
	b.Add(0, 2)
	b.Add(120, 1)
	if b.Total() != 6 {
		t.Errorf("Total = %d", b.Total())
	}
	if want := (BucketCounts{{0, 2}, {BucketIndex(100), 4}}); !slices.Equal(b, want) {
		t.Errorf("buckets = %v, want %v", b, want)
	}
	c := slices.Clone(b)
	c.Add(100, 1)
	if b.Count(BucketIndex(100)) != 4 {
		t.Error("a clone aliases the original")
	}
	var other BucketCounts
	other.Add(0, 5)
	b.Merge(other)
	if b.Count(0) != 7 {
		t.Errorf("Merge: %v", b)
	}
	// ApproxBytes sums representatives.
	ab := b.ApproxBytes()
	if ab != 4*int64(BucketRepresentative(BucketIndex(100))) {
		t.Errorf("ApproxBytes = %d", ab)
	}
}

// TestBucketMergeKeepsOrder: merging overlapping and disjoint bucket sets,
// from either side, leaves the buckets in increasing order with the counts
// summed.
func TestBucketMergeKeepsOrder(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name      string
		a, b, sum BucketCounts
	}{
		{"overlapping", BucketCounts{{2, 1}, {5, 2}, {9, 3}}, BucketCounts{{5, 4}, {9, 1}},
			BucketCounts{{2, 1}, {5, 6}, {9, 4}}},
		{"disjoint", BucketCounts{{3, 1}, {7, 1}}, BucketCounts{{0, 2}, {5, 2}, {12, 2}},
			BucketCounts{{0, 2}, {3, 1}, {5, 2}, {7, 1}, {12, 2}}},
		{"into empty", nil, BucketCounts{{1, 1}, {4, 1}}, BucketCounts{{1, 1}, {4, 1}}},
	} {
		for _, order := range [][2]BucketCounts{{c.a, c.b}, {c.b, c.a}} {
			got := slices.Clone(order[0])
			got.Merge(order[1])
			if !slices.Equal(got, c.sum) {
				t.Errorf("%s: %v merged with %v = %v, want %v", c.name, order[0], order[1], got, c.sum)
			}
		}
	}
}

// TestHistogramGrowthKeepsNeighbours: a profile carves each new edge's
// histograms two slots apiece from one slab, so a third bucket must move
// the histogram out of its slots instead of writing into the next
// histogram's.
func TestHistogramGrowthKeepsNeighbours(t *testing.T) {
	t.Parallel()
	p := New("app", "ifcb")
	a := p.Edge("a", "b")
	b := p.Edge("b", "c")
	b.Record(1, 1, false)
	b.Record(2, 2, false)
	want := slices.Clone(b.In)
	// a's reply histogram's slots lie right before b's request histogram's.
	next := unsafe.Add(unsafe.Pointer(&a.Out[:2][1]), unsafe.Sizeof(Bucket{}))
	if cap(a.In) != 2 || cap(a.Out) != 2 || next != unsafe.Pointer(&b.In[0]) {
		t.Fatalf("histograms not carved two adjacent slots each: caps %d, %d", cap(a.In), cap(a.Out))
	}
	for _, size := range []int{0, 4, 8, 16, 1 << 20} {
		a.Record(size, size, false)
	}
	if !slices.Equal(b.In, want) || !slices.Equal(b.Out, want) {
		t.Fatalf("growing a's histograms wrote into b's: %v, %v, want %v", b.In, b.Out, want)
	}
	if len(a.In) != 5 || a.In.Total() != 5 || !slices.IsSortedFunc(a.In, func(x, y Bucket) int { return x.Index - y.Index }) {
		t.Fatalf("a's grown histogram = %v", a.In)
	}
	if p.Edge("a", "b") != a || p.Edge("b", "c") != b {
		t.Fatal("an edge's summary moved")
	}
}

func TestEdgeSummaryRecordAndTime(t *testing.T) {
	t.Parallel()
	np := netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)
	e := new(EdgeSummary)
	e.Record(100, 1000, false)
	e.Record(100, 1000, false)
	if e.Calls != 2 || e.ExactInBytes != 200 || e.ExactOutBytes != 2000 {
		t.Fatalf("summary = %+v", e)
	}
	if e.NonRemotable {
		t.Fatal("spurious non-remotable flag")
	}
	e.Record(0, 0, true)
	if !e.NonRemotable {
		t.Fatal("non-remotable flag not sticky")
	}
	bt := e.Time(np)
	et := e.ExactTime(np)
	if bt <= 0 || et <= 0 {
		t.Fatalf("times: bucketed=%v exact=%v", bt, et)
	}
	// Bucketed pricing should approximate exact pricing within the bucket
	// quantization (factor of ~2 worst case; much closer typically).
	ratio := float64(bt) / float64(et)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("bucketed %v vs exact %v (ratio %.2f)", bt, et, ratio)
	}
	if new(EdgeSummary).ExactTime(np) != 0 {
		t.Error("empty edge has nonzero exact time")
	}
}

func TestEdgeSummaryMerge(t *testing.T) {
	t.Parallel()
	a := new(EdgeSummary)
	a.Record(10, 20, false)
	b := new(EdgeSummary)
	b.Record(30, 40, true)
	a.Merge(b)
	if a.Calls != 2 || a.ExactInBytes != 40 || a.ExactOutBytes != 60 || !a.NonRemotable {
		t.Fatalf("merged = %+v", a)
	}
}

func buildTestProfile() *Profile {
	p := New("app", "ifcb")
	p.Scenarios = []string{"s1"}
	p.AddInstance("c:reader", "Reader", nil)
	p.AddInstance("c:view", "View", []string{"Reader"})
	p.AddInstance("c:view", "View", []string{"Reader"})
	p.Edge(MainProgram, "c:reader").Record(64, 4096, false)
	p.Edge("c:reader", "c:view").Record(128, 16, false)
	p.Sort()
	return p
}

func TestProfileAccumulation(t *testing.T) {
	t.Parallel()
	p := buildTestProfile()
	if p.TotalInstances() != 3 {
		t.Errorf("TotalInstances = %d", p.TotalInstances())
	}
	if p.TotalCalls() != 2 {
		t.Errorf("TotalCalls = %d", p.TotalCalls())
	}
	var ids []string
	for _, ci := range p.Classifications {
		ids = append(ids, ci.ID)
	}
	if len(ids) != 2 || ids[0] != "c:reader" || ids[1] != "c:view" {
		t.Errorf("Classifications = %v", ids)
	}
	if p.Classification("c:view").Instances != 2 {
		t.Errorf("view instances = %d", p.Classification("c:view").Instances)
	}
}

func TestProfileMerge(t *testing.T) {
	t.Parallel()
	a := buildTestProfile()
	b := buildTestProfile()
	b.Scenarios = []string{"s2"}
	var before, after bytes.Buffer
	if err := b.Encode(&before); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Errorf("merge changed its argument:\n%s\nwas\n%s", after.String(), before.String())
	}
	if len(a.Scenarios) != 2 {
		t.Errorf("scenarios = %v", a.Scenarios)
	}
	if a.Edge(MainProgram, "c:reader").Calls != 2 {
		t.Errorf("merged edge calls = %d", a.Edge(MainProgram, "c:reader").Calls)
	}
	if a.Classification("c:view").Instances != 4 {
		t.Errorf("merged view instances = %d", a.Classification("c:view").Instances)
	}

	wrong := New("app", "st")
	if err := a.Merge(wrong); err == nil {
		t.Error("classifier mismatch merged")
	}
	wrongApp := New("other", "ifcb")
	if err := a.Merge(wrongApp); err == nil {
		t.Error("app mismatch merged")
	}
}

func TestCorrelation(t *testing.T) {
	t.Parallel()
	a := Vector{"x": 1, "y": 1}
	if got := Correlation(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %v", got)
	}
	b := Vector{"z": 5}
	if got := Correlation(a, b); got != 0 {
		t.Errorf("disjoint correlation = %v", got)
	}
	// Scale invariance.
	c := Vector{"x": 10, "y": 10}
	if got := Correlation(a, c); math.Abs(got-1) > 1e-12 {
		t.Errorf("scaled correlation = %v", got)
	}
	// Partial overlap lands strictly between.
	d := Vector{"x": 1}
	got := Correlation(a, d)
	if got <= 0 || got >= 1 {
		t.Errorf("partial correlation = %v", got)
	}
	// Empty vs empty: both silent, equivalent.
	if got := Correlation(Vector{}, Vector{}); got != 1 {
		t.Errorf("empty correlation = %v", got)
	}
	if got := Correlation(a, Vector{}); got != 0 {
		t.Errorf("empty-vs-nonempty = %v", got)
	}
}

func TestPropertyCorrelationBounds(t *testing.T) {
	t.Parallel()
	f := func(x1, y1, x2, y2 uint8) bool {
		a := Vector{"x": float64(x1), "y": float64(y1)}
		b := Vector{"x": float64(x2), "y": float64(y2)}
		c := Correlation(a, b)
		return c >= -1e-9 && c <= 1+1e-9 && math.Abs(Correlation(a, b)-Correlation(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLogFileRoundTrip(t *testing.T) {
	t.Parallel()
	p := buildTestProfile()
	p.Edge("c:reader", "c:view").NonRemotable = true
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "app" || got.Classifier != "ifcb" || len(got.Scenarios) != 1 {
		t.Fatalf("header = %+v", got)
	}
	if got.TotalCalls() != p.TotalCalls() || got.TotalInstances() != p.TotalInstances() {
		t.Fatal("totals differ after round trip")
	}
	e := got.Edge("c:reader", "c:view")
	if !e.NonRemotable || e.Calls != 1 || e.ExactInBytes != 128 {
		t.Fatalf("edge = %+v", e)
	}
	if path := got.Classification("c:view").Path; len(path) != 1 || path[0] != "Reader" {
		t.Fatalf("view path = %q", path)
	}
}

func TestLogFileOnDisk(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "o_newdoc.icc")
	p := buildTestProfile()
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalCalls() != p.TotalCalls() {
		t.Fatal("file round trip lost calls")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.icc")); err == nil {
		t.Fatal("missing file read")
	}
}

func TestDecodeGarbage(t *testing.T) {
	t.Parallel()
	if _, err := Decode(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestEdgeTimeUsesBuckets(t *testing.T) {
	t.Parallel()
	// Two messages in the same bucket price identically even if sizes
	// differ: network independence with bounded storage.
	np := netsim.ExactProfile(netsim.TenBaseT, netsim.DefaultSampleSizes)
	a := new(EdgeSummary)
	a.Record(1000, 0, false)
	b := new(EdgeSummary)
	b.Record(1023, 0, false)
	if a.Time(np) != b.Time(np) {
		t.Error("same-bucket messages priced differently")
	}
	// Messages a bucket apart price differently.
	c := new(EdgeSummary)
	c.Record(2048, 0, false)
	if a.Time(np) == c.Time(np) {
		t.Error("different buckets priced identically")
	}
	var zero time.Duration
	if new(EdgeSummary).Time(np) != zero {
		t.Error("empty edge nonzero time")
	}
}

func TestPropertyMergeCommutesOnTotals(t *testing.T) {
	t.Parallel()
	gen := func(seed int64) *Profile {
		rr := rand.New(rand.NewSource(seed))
		p := New("app", "ifcb")
		p.Scenarios = []string{"s"}
		for i := 0; i < 1+rr.Intn(6); i++ {
			src := string(rune('a' + rr.Intn(4)))
			dst := string(rune('a' + rr.Intn(4)))
			if src == dst {
				continue
			}
			p.Edge(src, dst).Record(rr.Intn(4096), rr.Intn(4096), rr.Intn(8) == 0)
		}
		for i := 0; i < rr.Intn(4); i++ {
			p.AddInstance(string(rune('a'+rr.Intn(4))), "C", nil)
		}
		return p
	}
	f := func(s1, s2 int64) bool {
		ab := gen(s1)
		if err := ab.Merge(gen(s2)); err != nil {
			return false
		}
		ba := gen(s2)
		if err := ba.Merge(gen(s1)); err != nil {
			return false
		}
		if ab.TotalCalls() != ba.TotalCalls() || ab.TotalInstances() != ba.TotalInstances() {
			return false
		}
		// Edge-level equality both ways.
		if len(ab.Edges) != len(ba.Edges) {
			return false
		}
		for _, e := range ab.Edges {
			o := ba.Edge(ab.Name(e.Src), ab.Name(e.Dst))
			if o.Calls != e.Calls || !slices.Equal(o.In, e.In) || !slices.Equal(o.Out, e.Out) || o.ExactInBytes != e.ExactInBytes ||
				o.NonRemotable != e.NonRemotable {
				return false
			}
		}
		return len(ab.Edges) == len(ba.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
