package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestLSQSizeReadsArePinned lists every .LSQSize selector in the package's
// non-test files, by file and enclosing function. Sweeps answer larger-LSQ
// points from a smaller rung's run whose LSQ never filled, and that is
// exact only because LSQSize enters the engine where this list says: the
// LSQ ring's capacity, the LSQ occupancy's Cap and the lsqStores capacity
// hint in New, plus the checkpoint digest and Validate. A new or moved read
// may let LSQSize change a run that never filled its LSQ.
func TestLSQSizeReadsArePinned(t *testing.T) {
	want := map[string]int{
		"engine.go NewSharing":                  3,
		"checkpoint.go Config.CheckpointDigest": 1,
		"config.go Config.Validate":             2,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			where := name
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where += " " + funcName(fn)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "LSQSize" {
					got[where]++
				}
				return true
			})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LSQSize selectors by file and function:\n got  %v\n want %v\n"+
			"recheck the LSQ-ladder exactness argument in internal/sweep/ladder.go "+
			"(and docs/ARCHITECTURE.md), then update this list", got, want)
	}
}

// funcName names fn as "Recv.Name" for methods, "Name" otherwise.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
