package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// channelStages are the exported functions allowed a channel in their
// signature: the stages that run goroutines of their own because a
// stream forks or merges there.
var channelStages = map[string]bool{"AsyncProjectStage": true}

// TestNoTupleStreamStages pins the one shape of the operators between a
// query's scan and its consumer: plain calls on batches, run by
// Terminal in the consumer's goroutine. No exported function or func
// type of this package takes or returns a channel, directly or through
// a func it takes or returns (a named func type of the package
// included), except channelStages.
func TestNoTupleStreamStages(t *testing.T) {
	fset, files := packageFiles(t)
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
	// hasChan reports whether a type is a channel or a func type with a
	// channel among its parameters or results, following named func
	// types of the package (seen guards recursive types).
	var hasChan func(e ast.Expr, seen map[string]bool) bool
	hasChan = func(e ast.Expr, seen map[string]bool) bool {
		switch et := e.(type) {
		case *ast.ChanType:
			return true
		case *ast.FuncType:
			for _, fl := range []*ast.FieldList{et.Params, et.Results} {
				if fl == nil {
					continue
				}
				for _, f := range fl.List {
					if hasChan(f.Type, seen) {
						return true
					}
				}
			}
		case *ast.Ident:
			if named, ok := funcTypes[et.Name]; ok && !seen[et.Name] {
				seen[et.Name] = true
				return hasChan(named, seen)
			}
		}
		return false
	}
	checked := 0
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				checked++
				if got, want := hasChan(fd.Type, map[string]bool{}), channelStages[fd.Name.Name]; got != want {
					t.Errorf("%s: exported %s: channel in signature = %v, want %v", fset.Position(fd.Pos()), fd.Name.Name, got, want)
				}
			}
		}
	}
	for name, ft := range funcTypes {
		if ast.IsExported(name) && hasChan(ft, map[string]bool{name: true}) {
			t.Errorf("exported func type %s takes or returns a channel", name)
		}
	}
	if checked == 0 {
		t.Fatal("no exported functions found")
	}
}

// packageFiles parses the package's non-test files.
func packageFiles(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
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
	return fset, files
}

// TestOneEvaluator pins the compiler as the package's one expression
// evaluator: no non-test file declares Eval or an eval* method on
// *Evaluator. The tree-walking interpreter lives in interp_test.go, as
// the oracle the compiled closures are held to; the check must find it
// there, so it cannot pass by looking for the wrong shape.
func TestOneEvaluator(t *testing.T) {
	fset, files := packageFiles(t)
	for _, f := range files {
		for _, fd := range interpreterMethods(f) {
			t.Errorf("%s: production declares interpreter method (*Evaluator).%s", fset.Position(fd.Pos()), fd.Name.Name)
		}
	}
	oracle, err := parser.ParseFile(fset, "interp_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(interpreterMethods(oracle)) == 0 {
		t.Fatal("interp_test.go declares no interpreter method: the check finds nothing")
	}
}

// interpreterMethods returns f's declarations of Eval and eval* methods
// on *Evaluator.
func interpreterMethods(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
			continue
		}
		star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		if id, ok := star.X.(*ast.Ident); !ok || id.Name != "Evaluator" {
			continue
		}
		if name := fd.Name.Name; name == "Eval" || strings.HasPrefix(name, "eval") {
			out = append(out, fd)
		}
	}
	return out
}
