// Package repolint implements this repository's custom vet pass as a set
// of small go/analysis-style analyzers built on the standard library
// alone (go/parser + go/ast), so the gate runs in CI and offline without
// external tooling.
//
// Rules:
//
//	errwrap      errors passed to fmt.Errorf must be wrapped with %w
//	wallclock    no time.Now() in internal/dist (deterministic replay
//	             paths run on the virtual clock)
//	paralleltest test functions must call t.Parallel()
//	typeassert   no unchecked type assertions in internal/com and
//	             internal/rte (the runtime must degrade to errors, not
//	             panics, on malformed values)
//	ctxthread    internal/dist code must thread the ambient context and
//	             virtual clock, not re-create them mid-path
//	maporder     no range over a map feeding ordered output (stream
//	             writes, or slice appends never sorted afterwards) —
//	             map iteration order is randomized per run
//	bodyclose    every http.Response obtained in a function must have
//	             its Body closed there (or ownership must visibly
//	             escape) — unclosed bodies leak connections
//	errcmp       sentinel errors (ErrFoo) must be compared with
//	             errors.Is, never == / != — identity breaks under
//	             wrapping; custom Is methods are exempt
//	unusedexport an exported identifier of an internal/ package needs a
//	             reference from a non-test file somewhere in the tree
//	             (a whole-tree rule: CheckDir runs it, CheckFile does not)
//
// A finding is waived by a comment on the same or the preceding line:
//
//	//lint:allow <rule> <reason>
package repolint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// File is one parsed source file presented to the analyzers.
type File struct {
	Path string // slash-separated, relative to the walk root
	Fset *token.FileSet
	AST  *ast.File
}

// Analyzer is one lint rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(f *File) []Diagnostic
}

// Analyzers is the repository rule set.
var Analyzers = []*Analyzer{ErrWrap, WallClock, ParallelTest, TypeAssert, CtxThread, MapOrder, BodyClose, ErrCmp}

// ErrWrap reports fmt.Errorf calls that pass an error value without
// wrapping it via %w, which breaks errors.Is/errors.As up the call chain.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "errors passed to fmt.Errorf must be wrapped with %w",
	Run: func(f *File) []Diagnostic {
		var out []Diagnostic
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(call.Fun, "fmt", "Errorf") || len(call.Args) < 2 {
				return true
			}
			format, ok := stringLit(call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				if name, isErr := errIdent(arg); isErr {
					out = append(out, Diagnostic{
						Pos:  f.Fset.Position(call.Pos()),
						Rule: "errwrap",
						Message: fmt.Sprintf(
							"fmt.Errorf passes error %q without %%w; wrap it or discard it explicitly", name),
					})
					break
				}
			}
			return true
		})
		return out
	},
}

// WallClock reports time.Now() calls in the distributed runtime: dist runs
// on a deterministic virtual clock, and wall time silently breaks replay.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "no time.Now() in internal/dist deterministic-replay paths",
	Run: func(f *File) []Diagnostic {
		if !strings.Contains(f.Path, "internal/dist/") || strings.HasSuffix(f.Path, "_test.go") {
			return nil
		}
		var out []Diagnostic
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(call.Fun, "time", "Now") {
				return true
			}
			out = append(out, Diagnostic{
				Pos:     f.Fset.Position(call.Pos()),
				Rule:    "wallclock",
				Message: "time.Now() in internal/dist; use the virtual clock for anything replayed",
			})
			return true
		})
		return out
	},
}

// ParallelTest reports Test functions that never call t.Parallel: the
// suite is large and serial tests stretch CI wall-clock for no reason.
var ParallelTest = &Analyzer{
	Name: "paralleltest",
	Doc:  "test functions must call t.Parallel()",
	Run: func(f *File) []Diagnostic {
		if !strings.HasSuffix(f.Path, "_test.go") {
			return nil
		}
		var out []Diagnostic
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || fn.Body == nil {
				continue
			}
			param, ok := testingTParam(fn)
			if !ok || !strings.HasPrefix(fn.Name.Name, "Test") || fn.Name.Name == "TestMain" {
				continue
			}
			if !callsMethod(fn.Body, param, "Parallel") {
				out = append(out, Diagnostic{
					Pos:     f.Fset.Position(fn.Pos()),
					Rule:    "paralleltest",
					Message: fmt.Sprintf("%s does not call %s.Parallel()", fn.Name.Name, param),
				})
			}
		}
		return out
	},
}

// TypeAssert reports unchecked type assertions x.(T) in the COM runtime
// packages. A wrong dynamic type there must surface as an error the
// caller can handle — an interception layer that panics on a malformed
// value takes the whole process with it. The comma-ok form and type
// switches are fine.
var TypeAssert = &Analyzer{
	Name: "typeassert",
	Doc:  "no unchecked type assertions in internal/com and internal/rte",
	Run: func(f *File) []Diagnostic {
		if !strings.Contains(f.Path, "internal/com/") && !strings.Contains(f.Path, "internal/rte/") {
			return nil
		}
		checked := checkedAsserts(f.AST)
		var out []Diagnostic
		ast.Inspect(f.AST, func(n ast.Node) bool {
			ta, ok := n.(*ast.TypeAssertExpr)
			if !ok || ta.Type == nil || checked[ta] {
				return true
			}
			out = append(out, Diagnostic{
				Pos:     f.Fset.Position(ta.Pos()),
				Rule:    "typeassert",
				Message: "unchecked type assertion; use the comma-ok form and return an error",
			})
			return true
		})
		return out
	},
}

// checkedAsserts collects the type assertions that appear as the sole RHS
// of a two-value assignment (v, ok := x.(T)), i.e. the comma-ok form.
func checkedAsserts(root ast.Node) map[*ast.TypeAssertExpr]bool {
	out := make(map[*ast.TypeAssertExpr]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == 2 && len(st.Rhs) == 1 {
				if ta, ok := st.Rhs[0].(*ast.TypeAssertExpr); ok {
					out[ta] = true
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == 2 && len(st.Values) == 1 {
				if ta, ok := st.Values[0].(*ast.TypeAssertExpr); ok {
					out[ta] = true
				}
			}
		}
		return true
	})
	return out
}

// CtxThread reports fresh context or virtual-clock construction inside the
// distributed runtime. Both carry the deterministic-replay state for an
// entire run: re-creating either mid-path silently forks that state, so
// they must be threaded from the caller. clock.go (the clock's own
// definition) and tests are exempt.
var CtxThread = &Analyzer{
	Name: "ctxthread",
	Doc:  "thread context and the virtual clock through internal/dist, do not re-create them",
	Run: func(f *File) []Diagnostic {
		if !strings.Contains(f.Path, "internal/dist/") ||
			strings.HasSuffix(f.Path, "_test.go") ||
			strings.HasSuffix(f.Path, "/clock.go") {
			return nil
		}
		var out []Diagnostic
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var msg string
			switch {
			case isPkgFunc(call.Fun, "context", "Background"), isPkgFunc(call.Fun, "context", "TODO"):
				msg = "fresh context in internal/dist; thread the caller's context instead"
			case isFuncNamed(call.Fun, "NewClock"):
				msg = "virtual clock constructed mid-path; thread the run's clock instead"
			default:
				return true
			}
			out = append(out, Diagnostic{
				Pos:     f.Fset.Position(call.Pos()),
				Rule:    "ctxthread",
				Message: msg,
			})
			return true
		})
		return out
	},
}

// isFuncNamed reports whether e names the function fun, either bare or
// through a package selector.
func isFuncNamed(e ast.Expr, fun string) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name == fun
	case *ast.SelectorExpr:
		return v.Sel.Name == fun
	}
	return false
}

// isPkgFunc reports whether e is a selector pkg.Fun on a plain package
// identifier.
func isPkgFunc(e ast.Expr, pkg, fun string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fun {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && id.Obj == nil
}

// stringLit extracts a constant string from a literal or a concatenation
// of literals.
func stringLit(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		return v.Value, true
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, lok := stringLit(v.X)
		r, rok := stringLit(v.Y)
		return l + r, lok && rok
	}
	return "", false
}

// errIdent reports whether the expression is an identifier that by naming
// convention holds an error.
func errIdent(e ast.Expr) (string, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", false
	}
	n := id.Name
	if n == "err" || strings.HasSuffix(n, "Err") || strings.HasSuffix(n, "err") {
		return n, true
	}
	return "", false
}

// testingTParam returns the name of the *testing.T parameter of a test
// function signature func(x *testing.T).
func testingTParam(fn *ast.FuncDecl) (string, bool) {
	params := fn.Type.Params
	if params == nil || len(params.List) != 1 || len(params.List[0].Names) != 1 {
		return "", false
	}
	star, ok := params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return "", false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "T" {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != "testing" {
		return "", false
	}
	return params.List[0].Names[0].Name, true
}

// callsMethod reports whether the body contains a call recv.method(...).
func callsMethod(body *ast.BlockStmt, recv, method string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != method {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
			found = true
			return false
		}
		return true
	})
	return found
}

// waivers collects the rules waived per line from //lint:allow comments.
// A waiver on line N covers findings on lines N and N+1.
func waivers(f *File) map[int]map[string]bool {
	out := make(map[int]map[string]bool)
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "lint:allow ")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				continue // a waiver requires a reason
			}
			line := f.Fset.Position(c.Pos()).Line
			for _, l := range []int{line, line + 1} {
				if out[l] == nil {
					out[l] = make(map[string]bool)
				}
				out[l][fields[0]] = true
			}
		}
	}
	return out
}

// CheckFile parses one file and runs every per-file analyzer, dropping
// waived findings.
func CheckFile(fset *token.FileSet, path string, src any) ([]Diagnostic, error) {
	f, err := parseFile(fset, path, src)
	if err != nil {
		return nil, err
	}
	return unwaived(f, runFile(f)), nil
}

func parseFile(fset *token.FileSet, path string, src any) (*File, error) {
	astf, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return &File{Path: filepath.ToSlash(path), Fset: fset, AST: astf}, nil
}

func runFile(f *File) []Diagnostic {
	var out []Diagnostic
	for _, a := range Analyzers {
		out = append(out, a.Run(f)...)
	}
	return out
}

// unwaived drops the findings in f that a //lint:allow comment waives.
func unwaived(f *File, ds []Diagnostic) []Diagnostic {
	w := waivers(f)
	var out []Diagnostic
	for _, d := range ds {
		if !w[d.Pos.Line][d.Rule] {
			out = append(out, d)
		}
	}
	return out
}

// CheckDir walks a directory tree, checks every non-generated Go file,
// and runs the unusedexport rule over the whole tree.
func CheckDir(root string) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	var files []*File
	var modDirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() == "go.mod" {
			modDirs = append(modDirs, filepath.Dir(path))
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parseFile(fset, path, nil)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tree, err := unusedExports(fset, files, modDirs)
	if err != nil {
		return nil, err
	}
	byFile := map[string][]Diagnostic{}
	for _, d := range tree {
		byFile[d.Pos.Filename] = append(byFile[d.Pos.Filename], d)
	}
	var out []Diagnostic
	for _, f := range files {
		out = append(out, unwaived(f, append(runFile(f), byFile[fset.Position(f.AST.Pos()).Filename]...))...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out, nil
}
