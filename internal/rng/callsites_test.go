package rng

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoMathRandSeeding keeps seeding on one path: no non-test file of the
// module outside this package may call math/rand.NewSource (directly or as
// rand.New(rand.NewSource(...))), so no call site brings back the
// standard library's serial 607-word seeding. Use rng.New or rng.NewSource,
// which give the same stream.
func TestNoMathRandSeeding(t *testing.T) {
	root := moduleRoot(t)
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var scanned int
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == self || name == "testdata" || name == "vendor" ||
				(path != root && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			// A nested go.mod starts another module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanned++
		for _, pos := range newSourceRefs(file) {
			rel, _ := filepath.Rel(root, path)
			t.Errorf("%s:%d: math/rand.NewSource outside internal/rng; use rng.New or rng.NewSource",
				rel, fset.Position(pos).Line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("no Go files scanned")
	}
}

// newSourceRefs returns the position of every reference to math/rand's
// NewSource in file, whatever name the import is bound to.
func newSourceRefs(file *ast.File) []token.Pos {
	name := ""
	for _, imp := range file.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "math/rand" {
			continue
		}
		name = "rand"
		if imp.Name != nil {
			name = imp.Name.Name
		}
	}
	if name == "" || name == "_" {
		return nil
	}
	var refs []token.Pos
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == name && n.Sel.Name == "NewSource" {
				refs = append(refs, n.Pos())
			}
		case *ast.Ident:
			// A dot import puts NewSource in file scope.
			if name == "." && n.Name == "NewSource" {
				refs = append(refs, n.Pos())
			}
		}
		return true
	})
	return refs
}

// moduleRoot returns the directory of the go.mod enclosing the package.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the package")
		}
		dir = parent
	}
}
