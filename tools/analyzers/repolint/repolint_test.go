package repolint

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func check(t *testing.T, path, src string) []Diagnostic {
	t.Helper()
	ds, err := CheckFile(token.NewFileSet(), path, src)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func rules(ds []Diagnostic) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Rule)
	}
	return out
}

func TestErrWrap(t *testing.T) {
	t.Parallel()
	src := `package p
import "fmt"
func f(err error) error {
	if err != nil {
		return fmt.Errorf("doing thing: %v", err)
	}
	return nil
}
`
	ds := check(t, "p/f.go", src)
	if len(ds) != 1 || ds[0].Rule != "errwrap" {
		t.Fatalf("diagnostics = %v, want one errwrap", ds)
	}

	good := strings.Replace(src, "%v", "%w", 1)
	if ds := check(t, "p/f.go", good); len(ds) != 0 {
		t.Fatalf("%%w version still flagged: %v", ds)
	}

	// Non-error arguments are not flagged.
	other := `package p
import "fmt"
func f(name string) error { return fmt.Errorf("bad name %q", name) }
`
	if ds := check(t, "p/f.go", other); len(ds) != 0 {
		t.Fatalf("non-error args flagged: %v", ds)
	}

	// Concatenated format strings are still parsed.
	concat := `package p
import "fmt"
func f(err error) error { return fmt.Errorf("a: " + "%v", err) }
`
	if ds := check(t, "p/f.go", concat); len(ds) != 1 {
		t.Fatalf("concatenated format not flagged: %v", ds)
	}
}

func TestWallClock(t *testing.T) {
	t.Parallel()
	src := `package dist
import "time"
func now() time.Time { return time.Now() }
`
	ds := check(t, "internal/dist/clock.go", src)
	if len(ds) != 1 || ds[0].Rule != "wallclock" {
		t.Fatalf("diagnostics = %v, want one wallclock", ds)
	}
	// Outside internal/dist the rule does not apply.
	if ds := check(t, "internal/netsim/clock.go", src); len(ds) != 0 {
		t.Fatalf("wallclock fired outside internal/dist: %v", ds)
	}
	// Test files are exempt.
	if ds := check(t, "internal/dist/clock_test.go", src); len(ds) != 0 {
		t.Fatalf("wallclock fired in a test file: %v", ds)
	}
}

func TestParallelTest(t *testing.T) {
	t.Parallel()
	src := `package p
import "testing"
func TestSerial(t *testing.T) { _ = t }
func TestParallelOK(t *testing.T) { t.Parallel() }
func TestMain(m *testing.M) {}
func helper(t *testing.T) {}
func BenchmarkX(b *testing.B) {}
`
	ds := check(t, "p/p_test.go", src)
	if len(ds) != 1 || ds[0].Rule != "paralleltest" || !strings.Contains(ds[0].Message, "TestSerial") {
		t.Fatalf("diagnostics = %v, want one paralleltest for TestSerial", ds)
	}
	// The rule only applies to _test.go files.
	if ds := check(t, "p/p.go", src); len(ds) != 0 {
		t.Fatalf("paralleltest fired outside a test file: %v", ds)
	}
}

func TestTypeAssert(t *testing.T) {
	t.Parallel()
	src := `package com
func f(v any) *int {
	return v.(*int)
}
`
	ds := check(t, "internal/com/env.go", src)
	if len(ds) != 1 || ds[0].Rule != "typeassert" {
		t.Fatalf("diagnostics = %v, want one typeassert", ds)
	}
	// internal/rte is in scope too, including its tests.
	if ds := check(t, "internal/rte/rte_test.go", src); len(ds) != 1 {
		t.Fatalf("typeassert did not fire in internal/rte test: %v", ds)
	}
	// Outside the runtime packages the rule does not apply.
	if ds := check(t, "internal/apps/octarine/gui.go", src); len(ds) != 0 {
		t.Fatalf("typeassert fired outside internal/com and internal/rte: %v", ds)
	}
	// The comma-ok forms and type switches are fine.
	good := `package com
var global, globalOK = any(1).(int)
func f(v any) (*int, bool) {
	p, ok := v.(*int)
	switch v.(type) {
	case string:
	}
	switch w := v.(type) {
	case int:
		_ = w
	}
	return p, ok
}
`
	if ds := check(t, "internal/com/env.go", good); len(ds) != 0 {
		t.Fatalf("checked assertions flagged: %v", ds)
	}
}

func TestCtxThread(t *testing.T) {
	t.Parallel()
	src := `package dist
import "context"
func f() {
	ctx := context.Background()
	_ = ctx
	_ = context.TODO()
	clock := NewClock(nil, nil)
	_ = clock
}
`
	ds := check(t, "internal/dist/run.go", src)
	if got := rules(ds); len(got) != 3 || got[0] != "ctxthread" {
		t.Fatalf("diagnostics = %v, want three ctxthread", ds)
	}
	// clock.go itself constructs the clock; it is exempt.
	if ds := check(t, "internal/dist/clock.go", src); len(ds) != 0 {
		t.Fatalf("ctxthread fired in clock.go: %v", ds)
	}
	// Tests are exempt.
	if ds := check(t, "internal/dist/run_test.go", src); len(ds) != 0 {
		t.Fatalf("ctxthread fired in a test file: %v", ds)
	}
	// Outside internal/dist the rule does not apply.
	if ds := check(t, "internal/core/adps.go", src); len(ds) != 0 {
		t.Fatalf("ctxthread fired outside internal/dist: %v", ds)
	}
}

func TestWaivers(t *testing.T) {
	t.Parallel()
	sameLine := `package dist
import "time"
func now() time.Time { return time.Now() } //lint:allow wallclock real time wanted
`
	if ds := check(t, "internal/dist/clock.go", sameLine); len(ds) != 0 {
		t.Fatalf("same-line waiver ignored: %v", ds)
	}
	precedingLine := `package dist
import "time"
func now() time.Time {
	//lint:allow wallclock real time wanted
	return time.Now()
}
`
	if ds := check(t, "internal/dist/clock.go", precedingLine); len(ds) != 0 {
		t.Fatalf("preceding-line waiver ignored: %v", ds)
	}
	// A waiver for a different rule does not apply.
	wrongRule := `package dist
import "time"
func now() time.Time {
	//lint:allow errwrap not the right rule
	return time.Now()
}
`
	if ds := check(t, "internal/dist/clock.go", wrongRule); len(ds) != 1 {
		t.Fatalf("wrong-rule waiver suppressed the finding: %v", ds)
	}
	// A waiver without a reason is invalid and does not apply.
	noReason := `package dist
import "time"
func now() time.Time {
	//lint:allow wallclock
	return time.Now()
}
`
	if ds := check(t, "internal/dist/clock.go", noReason); len(ds) != 1 {
		t.Fatalf("reasonless waiver suppressed the finding: %v", ds)
	}
}

func TestCheckDirOnThisPackage(t *testing.T) {
	t.Parallel()
	// The lint tool must hold itself to its own rules.
	ds, err := CheckDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Fatalf("repolint has findings on itself: %v", ds)
	}
}

// unusedTree is a two-module tree in the shape of this repository: a
// command, an internal package and a benchmark module of its own that
// imports it.
var unusedTree = map[string]string{
	"go.mod": "module example.com/m\n",
	"cmd/m/main.go": `package main

import "example.com/m/internal/p"

func main() { p.Used(); _ = p.Measure(p.Square{}) }
`,
	"internal/p/p.go": `package p

// Used is called by the command.
func Used() {}

// OnlyTests is referenced from a test file alone.
func OnlyTests() {}

// FromBench is referenced by the benchmark module alone.
func FromBench() {}

// Shape is what Measure measures.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{}

// Area is reached only through Shape.
func (Square) Area() int { return 1 }

// Measure is called by the command.
func Measure(s Shape) int { return s.Area() }
`,
	"internal/p/p_test.go": "package p\n\nvar _ = OnlyTests\n",
	"bench/go.mod":         "module example.com/m/bench\n",
	"bench/main.go": `package main

import "example.com/m/internal/p"

func main() { p.FromBench() }
`,
}

// checkTree writes files under a fresh directory, with replace applied
// to internal/p/p.go, and runs CheckDir over it.
func checkTree(t *testing.T, files map[string]string, old, replacement string) []Diagnostic {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		if name == "internal/p/p.go" {
			src = strings.Replace(src, old, replacement, 1)
		}
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := CheckDir(root)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestUnusedExport(t *testing.T) {
	t.Parallel()
	// Only OnlyTests is flagged: a test reference is no use, while the
	// benchmark module's call and the call through Shape are.
	ds := checkTree(t, unusedTree, "", "")
	if len(ds) != 1 || ds[0].Rule != "unusedexport" || !strings.Contains(ds[0].Message, "function OnlyTests") {
		t.Fatalf("diagnostics = %v, want one unusedexport for OnlyTests", ds)
	}
	// Without the benchmark module's call, FromBench is flagged too.
	noBench := map[string]string{}
	for name, src := range unusedTree {
		noBench[name] = src
	}
	noBench["bench/main.go"] = "package main\n\nfunc main() {}\n"
	if ds := checkTree(t, noBench, "", ""); len(ds) != 2 {
		t.Fatalf("diagnostics = %v, want OnlyTests and FromBench", ds)
	}
	// A waiver with a reason silences the finding ...
	const decl = "func OnlyTests() {}"
	if ds := checkTree(t, unusedTree, decl, "//lint:allow unusedexport closed set: a test fixture\n"+decl); len(ds) != 0 {
		t.Fatalf("waived finding reported: %v", ds)
	}
	// ... and one without a reason does not.
	if ds := checkTree(t, unusedTree, decl, "//lint:allow unusedexport\n"+decl); len(ds) != 1 {
		t.Fatalf("reasonless waiver: diagnostics = %v, want one", ds)
	}
}
