package passes

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoAtomicFunctionCalls keeps every shared counter a typed atomic
// (atomic.Int64, atomic.Bool, ...). A field reached through a sync/atomic
// function (atomic.AddInt64(&s.n, 1)) can also be read or written
// plainly, which races; a typed atomic's value cannot be, and go vet's
// copylocks check reports copies of one. So no non-test code may call a
// sync/atomic function at all.
func TestNoAtomicFunctionCalls(t *testing.T) {
	if calls := atomicCalls(t, "testdata/atomiccalls"); len(calls) != 3 {
		t.Fatalf("the fixture's three atomic function calls were not all found: %v", calls)
	}
	for _, c := range atomicCalls(t, "../../..") {
		t.Errorf("%s: call a method of a typed atomic (atomic.Int64, ...) instead", c)
	}
}

// atomicCalls lists, as "file:line: atomic.F", every call to a sync/atomic
// function in the non-test Go files under root, outside testdata
// directories (except when root is one) and hidden directories.
func atomicCalls(t *testing.T, root string) []string {
	t.Helper()
	var calls []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "sync/atomic" {
				continue
			}
			name := "atomic"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if name == "." {
				calls = append(calls, fset.Position(imp.Pos()).String()+": dot-import of sync/atomic")
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == name {
						calls = append(calls, fset.Position(call.Pos()).String()+": atomic."+sel.Sel.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return calls
}
