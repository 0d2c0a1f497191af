package cloudmedia_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cloudmedia/internal/analysis"
)

// testOnlyAllowed lists the exported internal/ code that no non-test file
// uses but that stays on purpose, each with its reason. A key is an import
// path (the whole package), "path.Name" for a function or type, or
// "path.Type.Method" for a method.
var testOnlyAllowed = map[string]string{
	"cloudmedia/internal/testutil": "shared test helpers; only tests may import it",
	"cloudmedia/internal/analysis.RunFixture": "the analyzer fixture driver, shared by the analyzer tests " +
		"and kept beside the analyzers it drives",
	"cloudmedia/internal/mathx.NewMMm": "the stationary M/M/m reference that queueing's sizing tests " +
		"compare the production search against; testutil cannot hold it without an import cycle",
	"cloudmedia/internal/core.DeriveDemand": "the one-shot demand derivation that the gated " +
		"BenchmarkDeriveDemand in scripts/bench.sh calls",
	"cloudmedia/internal/sim.PoolSpawns": "pins the serial FanOut path in the sim and fluid tests",
}

// TestNoTestOnlyInternalAPI fails when an exported function, method or
// type in internal/ is used by no non-test file of the root module or of
// the daybench module. Code that only tests call is dead weight: delete
// it, or move a reference implementation into the _test.go files of the
// package whose tests compare against it.
//
// Functions and types are keyed by import path and name; a type named
// only in its own methods' receivers counts as unused. Methods are keyed
// by name alone, so a method reached only through an interface still
// counts as used; the check can miss a dead method but never flags a
// live one. A type aliased from a package outside internal/ is public
// API, and so are its methods. An allowlist entry that is no longer
// test-only fails too, so the list cannot go stale.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	var pkgs []*analysis.Package
	for _, dir := range []string{root, filepath.Join(root, "daybench")} {
		loaded, err := analysis.Load(dir, "./...")
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		pkgs = append(pkgs, loaded...)
	}

	used := make(map[string]bool)        // "path.Name" of used functions and types
	usedMethods := make(map[string]bool) // names of used methods
	public := make(map[string]bool)      // "path.Name" of internal types aliased outside internal/
	for _, p := range pkgs {
		receivers := receiverIdents(p.Files)
		for id, obj := range p.TypesInfo.Uses {
			if obj.Pkg() == nil || receivers[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				usedMethods[fn.Name()] = true
				continue
			}
			used[obj.Pkg().Path()+"."+obj.Name()] = true
		}
		if isInternal(p.PkgPath) {
			continue
		}
		for _, name := range p.Types.Scope().Names() {
			if tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					public[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
				}
			}
		}
	}

	var unused []string
	for _, p := range pkgs {
		if !isInternal(p.PkgPath) {
			continue
		}
		if _, ok := testOnlyAllowed[p.PkgPath]; ok {
			unused = append(unused, p.PkgPath)
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := p.PkgPath + "." + name
			if obj.Exported() && !used[key] && !public[key] {
				switch obj.(type) {
				case *types.Func, *types.TypeName:
					unused = append(unused, key)
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || public[key] {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !usedMethods[m.Name()] {
					unused = append(unused, key+"."+m.Name())
				}
			}
		}
	}

	sort.Strings(unused)
	flagged := make(map[string]bool, len(unused))
	for _, key := range unused {
		flagged[key] = true
		if _, ok := testOnlyAllowed[key]; !ok {
			t.Errorf("%s is exported from internal/ but only tests use it: delete it, or move it into a _test.go file", key)
		}
	}
	for key := range testOnlyAllowed {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is not test-only code any more: remove the entry", key)
		}
	}
}

// receiverIdents returns the identifiers inside method receivers. A
// type named only there is used by nothing but its own methods.
func receiverIdents(files []*ast.File) map[*ast.Ident]bool {
	idents := make(map[*ast.Ident]bool)
	for _, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				ast.Inspect(fn.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						idents[id] = true
					}
					return true
				})
			}
		}
	}
	return idents
}

func isInternal(path string) bool {
	return strings.HasPrefix(path, "cloudmedia/internal/")
}
