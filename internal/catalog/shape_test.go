package catalog

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneSourceOpen guards the source boundary's shape: a source is
// read only as batches (Source.Open), so no non-test file under
// internal/ may bring back a second interface for it or a
// tuple-at-a-time stream — a type named BatchSource or BatchOptions,
// or any function (method, literal or interface method) whose results
// include a <-chan value.Tuple.
func TestOneSourceOpen(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		inValue := f.Name.Name == "value"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if n.Name.Name == "BatchSource" || n.Name.Name == "BatchOptions" {
					t.Errorf("%s: declares type %s", fset.Position(n.Pos()), n.Name.Name)
				}
			case *ast.FuncType:
				if n.Results == nil {
					return true
				}
				for _, r := range n.Results.List {
					if isTupleRecvChan(r.Type, inValue) {
						t.Errorf("%s: a function returns <-chan value.Tuple", fset.Position(r.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned %d files under internal/; the walk missed the tree", files)
	}
}

// isTupleRecvChan reports whether e is <-chan value.Tuple (<-chan Tuple
// inside package value).
func isTupleRecvChan(e ast.Expr, inValue bool) bool {
	ch, ok := e.(*ast.ChanType)
	if !ok || ch.Dir != ast.RECV {
		return false
	}
	switch v := ch.Value.(type) {
	case *ast.SelectorExpr:
		x, ok := v.X.(*ast.Ident)
		return ok && x.Name == "value" && v.Sel.Name == "Tuple"
	case *ast.Ident:
		return inValue && v.Name == "Tuple"
	}
	return false
}
