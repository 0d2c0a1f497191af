package cloudmedia_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"

	"cloudmedia/internal/analysis"
)

// runDriverPackages may drive an assembled stack's engine themselves:
// internal/stack holds the one run loop (System.Run), and internal/geo
// steps the regions of a multi-region deployment between its failover
// events.
var runDriverPackages = map[string]bool{
	"cloudmedia/internal/stack": true,
	"cloudmedia/internal/geo":   true,
}

// engineTypes are the engine seam behind stack.System.Sim and the two
// engines that implement it, keyed "path.Name".
var engineTypes = map[string]bool{
	"cloudmedia/internal/sim.Backend":   true,
	"cloudmedia/internal/sim.Simulator": true,
	"cloudmedia/internal/fluid.Backend": true,
}

// TestOneRunDriver fails when a non-test file of the root module or of
// the daybench module calls RunUntil on an engine outside the packages
// allowed to drive one. A run is stepped, sampled and billed by
// stack.System.Run; a second loop that steps the engine itself would
// commit billing on its own cadence and drift from it in the last bits.
func TestOneRunDriver(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	for _, dir := range []string{root, filepath.Join(root, "daybench")} {
		pkgs, err := analysis.Load(dir, "./...")
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		for _, p := range pkgs {
			if runDriverPackages[p.PkgPath] {
				continue
			}
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "RunUntil" {
						return true
					}
					if s := p.TypesInfo.Selections[sel]; s != nil && engineTypes[namedKey(s.Recv())] {
						t.Errorf("%s: RunUntil on %s outside internal/stack: drive the run through stack.System.Run",
							p.Fset.Position(sel.Pos()), s.Recv())
					}
					return true
				})
			}
		}
	}
}

// namedKey returns "path.Name" of t's named type, looking through one
// pointer, or "" when t is not named.
func namedKey(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}
