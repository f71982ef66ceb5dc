package repolint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// implicitMethods are called by the standard library through interfaces
// the tree never names.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

// unusedExports is the unusedexport rule, the one whole-tree rule: an
// exported identifier of an internal/ package must have a reference from
// some non-test file in the tree. Every module whose go.mod the walk
// finds counts, so a benchmark module that imports the package is a
// caller; a walk that finds no go.mod (a subtree) is not checked, since
// it cannot see the callers. Code that only tests reach is not product
// code: it belongs in the tests or nowhere, and staticcheck, which counts
// a test reference as a use, does not keep it out.
//
// Every non-test package is type-checked with go/types, the standard
// library from go/importer's "source" importer. The targets are
// package-level functions, types, variables and constants and the
// methods of concrete types. A method also counts as used when an
// interface method of the same name is referenced, and the methods the
// standard library calls through interfaces (String, Error, the
// marshalers) always do. A reference from inside the declaration itself
// (recursion, a method's own receiver) is not a use.
func unusedExports(fset *token.FileSet, files []*File, modDirs []string) ([]Diagnostic, error) {
	mods := make([]module, 0, len(modDirs))
	for _, dir := range modDirs {
		mp, err := modulePath(filepath.Join(dir, "go.mod"))
		if err != nil {
			return nil, err
		}
		mods = append(mods, module{path: mp, dir: filepath.ToSlash(dir)})
	}
	c := &treeChecker{
		fset:   fset,
		byPath: map[string][]*File{},
		pkgs:   map[string]*types.Package{},
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	internal := map[string]bool{}
	for _, f := range files {
		dir := path.Dir(f.Path)
		if strings.HasSuffix(f.Path, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(filepath.FromSlash(dir), path.Base(f.Path)); err != nil || !ok {
			continue
		}
		if ip, ok := importPath(dir, mods); ok {
			c.byPath[ip] = append(c.byPath[ip], f)
			internal[ip] = strings.Contains("/"+ip+"/", "/internal/")
		}
	}
	paths := make([]string, 0, len(c.byPath))
	for ip := range c.byPath {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := c.ImportFrom(ip, "", 0); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	ifaceNames := map[string]bool{}
	for _, ip := range paths {
		for _, f := range c.byPath[ip] {
			eachDecl(f.AST, func(n ast.Node, defs []*ast.Ident) {
				markUses(n, defs, c.info, used, ifaceNames)
			})
		}
	}

	var out []Diagnostic
	for _, ip := range paths {
		if !internal[ip] {
			continue
		}
		for _, f := range c.byPath[ip] {
			eachDecl(f.AST, func(_ ast.Node, defs []*ast.Ident) {
				for _, id := range defs {
					obj := c.info.Defs[id]
					if !id.IsExported() || obj == nil || used[obj] ||
						isMethod(obj) && (ifaceNames[id.Name] || implicitMethods[id.Name]) {
						continue
					}
					out = append(out, Diagnostic{
						Pos:  f.Fset.Position(id.Pos()),
						Rule: "unusedexport",
						Message: fmt.Sprintf("exported %s %s has no non-test reference; delete it or move it into test code",
							objKind(obj), id.Name),
					})
				}
			})
		}
	}
	return out, nil
}

// treeChecker type-checks the tree's own packages from the parsed files
// into one shared Info, and imports everything else from source.
type treeChecker struct {
	fset   *token.FileSet
	byPath map[string][]*File
	pkgs   map[string]*types.Package
	info   *types.Info
	std    types.ImporterFrom
}

func (c *treeChecker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, "", 0)
}

func (c *treeChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	files, ok := c.byPath[path]
	if !ok {
		return c.std.ImportFrom(path, dir, mode)
	}
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.AST
	}
	var first error
	conf := types.Config{Importer: c, Error: func(err error) {
		if first == nil {
			first = err
		}
	}}
	pkg, _ := conf.Check(path, c.fset, asts, c.info)
	if first != nil {
		return nil, fmt.Errorf("unusedexport: type-checking %s: %w", path, first)
	}
	c.pkgs[path] = pkg
	return pkg, nil
}

// eachDecl visits every top-level function and spec of file with the
// names it declares. A method is visited without its receiver.
func eachDecl(file *ast.File, visit func(n ast.Node, defs []*ast.Ident)) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			visit(&ast.FuncDecl{Name: d.Name, Type: d.Type, Body: d.Body}, []*ast.Ident{d.Name})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					visit(s, []*ast.Ident{s.Name})
				case *ast.ValueSpec:
					visit(s, s.Names)
				}
			}
		}
	}
}

// markUses records every object n refers to, except what defs declare,
// and the names of the interface methods among them.
func markUses(n ast.Node, defs []*ast.Ident, info *types.Info, used map[types.Object]bool, ifaceNames map[string]bool) {
	own := map[types.Object]bool{}
	for _, id := range defs {
		own[info.Defs[id]] = true
	}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceNames[id.Name] = true
			}
		}
		if obj != nil && !own[obj] {
			used[obj] = true
		}
		return true
	})
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

func objKind(obj types.Object) string {
	switch obj.(type) {
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "constant"
	case *types.Var:
		return "variable"
	}
	if isMethod(obj) {
		return "method"
	}
	return "function"
}

// module is one go.mod: its module path and slash-separated directory
// as the walk names it.
type module struct{ path, dir string }

// modulePath reads the module directive of a go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("unusedexport: %s has no module directive", gomod)
}

// importPath maps a package directory, as the walk names it, to its
// import path under the innermost module that holds it.
func importPath(dir string, mods []module) (string, bool) {
	best, ip := -1, ""
	for _, m := range mods {
		rel, ok := dir, m.dir == "."
		if !ok {
			rel, ok = strings.CutPrefix(dir+"/", m.dir+"/")
		}
		if ok && len(m.dir) > best {
			best, ip = len(m.dir), path.Join(m.path, rel)
		}
	}
	return ip, best >= 0
}
