package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestNoTupleStreamStages pins the one stream shape between stages: no
// exported function or func type of this package returns a
// <-chan value.Tuple, directly or through a func it returns (a named
// func type of the package included). Batches are the only stream; a
// row travels as a batch of one.
func TestNoTupleStreamStages(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatal("no package files parsed")
	}
	funcTypes := map[string]*ast.FuncType{}
	for _, f := range files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				for _, s := range gd.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						if ft, ok := ts.Type.(*ast.FuncType); ok {
							funcTypes[ts.Name.Name] = ft
						}
					}
				}
			}
		}
	}
	// returnsTuples reports whether a func type yields a tuple channel,
	// following returned func types (seen guards recursive types).
	var returnsTuples func(ft *ast.FuncType, seen map[string]bool) bool
	returnsTuples = func(ft *ast.FuncType, seen map[string]bool) bool {
		if ft.Results == nil {
			return false
		}
		for _, r := range ft.Results.List {
			switch rt := r.Type.(type) {
			case *ast.ChanType:
				if sel, ok := rt.Value.(*ast.SelectorExpr); ok && sel.Sel.Name == "Tuple" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "value" {
						return true
					}
				}
			case *ast.FuncType:
				if returnsTuples(rt, seen) {
					return true
				}
			case *ast.Ident:
				if named, ok := funcTypes[rt.Name]; ok && !seen[rt.Name] {
					seen[rt.Name] = true
					if returnsTuples(named, seen) {
						return true
					}
				}
			}
		}
		return false
	}
	checked := 0
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				checked++
				if returnsTuples(fd.Type, map[string]bool{}) {
					t.Errorf("%s: exported %s returns a tuple stream", fset.Position(fd.Pos()), fd.Name.Name)
				}
			}
		}
	}
	for name, ft := range funcTypes {
		if ast.IsExported(name) && returnsTuples(ft, map[string]bool{name: true}) {
			t.Errorf("exported func type %s returns a tuple stream", name)
		}
	}
	if checked == 0 {
		t.Fatal("no exported functions found")
	}
}
