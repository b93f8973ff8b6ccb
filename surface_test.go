package powerdiv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreferencedAllowed lists the exported top-level identifiers of
// internal/ that no non-test code refers to, each with the one-word reason
// it stays:
//
//   - interface: part of a type's documented method set or a family of
//     constructors that callers pick from.
//   - harness: test-harness API of internal/faultfs.
//   - seam: an injection point tests replace or read.
//   - reference: the oracle an equivalence test compares against.
//   - unit: a physical unit constant.
//   - sentinel: a value callers compare against.
var unreferencedAllowed = map[string]string{
	"cpumodel.WriteCurveCSV":      "interface", // writes what ParseCurveCSV reads
	"division.AbsoluteError":      "reference", // golden_dense_test.go's oracle
	"division.ActiveFromEstimate": "reference", // Eq 4
	"division.ConstShares":        "reference",
	"division.EstimateWithPolicy": "reference", // Eq 2
	"faultfs.NewHost":             "harness",
	"faultfs.NewInjector":         "harness",
	"procfs.ReadCurFreqKHz":       "seam",
	"protocol.EstimateResidual":   "interface", // R on real hardware
	"protocol.WorkerBudgetInUse":  "seam",
	"rapl.Discover":               "seam",
	"rapl.NewSimZone":             "seam",
	"rapl.OpenZone":               "seam",
	"rapl.Zone":                   "interface",
	"retry.Default":               "interface",
	"trace.Add":                   "interface", // BinOp's pointwise sum
	"traffic.NoBaseload":          "sentinel",
	"units.Kilojoule":             "unit",
	"units.Microjoule":            "unit",
	"units.Millijoule":            "unit",
}

// TestExportedSurface fails on an exported top-level identifier of an
// internal/ package that no non-test file of the module (perfbench
// included) refers to, unless unreferencedAllowed names it: such an
// identifier is dead code or test-only API. References are found
// syntactically — a selector through the package's import, or the bare
// name inside its own package — so a local of the same name hides a dead
// identifier, never the other way round.
func TestExportedSurface(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "pkg.Name" → declaration
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
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
		pkg := ""
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			pkg = strings.TrimPrefix(dir, "internal/")
		}
		for _, name := range topLevelNames(file) {
			if pkg != "" && name.IsExported() {
				declared[pkg+"."+name.Name] = fset.Position(name.Pos())
			}
		}
		collectRefs(file, pkg, used)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no exported identifiers found under internal/")
	}
	var dead []string
	for id, pos := range declared {
		if !used[id] && unreferencedAllowed[id] == "" {
			dead = append(dead, pos.String()+": "+id)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test reference; delete it or list it in unreferencedAllowed with a reason", d)
	}
	for id := range unreferencedAllowed {
		if _, ok := declared[id]; !ok {
			t.Errorf("unreferencedAllowed lists %s, which is not declared", id)
		} else if used[id] {
			t.Errorf("unreferencedAllowed lists %s, which has a non-test reference", id)
		}
	}
}

// topLevelNames returns the names a file declares at package level:
// functions (not methods), types, variables and constants.
func topLevelNames(file *ast.File) []*ast.Ident {
	var names []*ast.Ident
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name)
				case *ast.ValueSpec:
					names = append(names, s.Names...)
				}
			}
		}
	}
	return names
}

// collectRefs marks in used every "pkg.Name" file refers to: selectors
// through an import of an internal/ package, and — when the file belongs
// to internal/<pkg> — bare identifiers other than declaration names.
func collectRefs(file *ast.File, pkg string, used map[string]bool) {
	imports := map[string]string{} // local name → internal package
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		rest, ok := strings.CutPrefix(path, "powerdiv/internal/")
		if !ok {
			continue
		}
		name := filepath.Base(rest)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = rest
	}
	decls := map[*ast.Ident]bool{} // identifiers that are not references
	for _, name := range topLevelNames(file) {
		decls[name] = true
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			decls[n.Name] = true
		case *ast.Field:
			for _, name := range n.Names {
				decls[name] = true // a struct field, parameter or result
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					used[p+"."+n.Sel.Name] = true
					return false
				}
			}
			decls[n.Sel] = true // a field or method name, not a package-level one
		case *ast.Ident:
			if pkg != "" && !decls[n] {
				used[pkg+"."+n.Name] = true
			}
		}
		return true
	})
}
