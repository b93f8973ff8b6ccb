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
//   - interface: part of a type's documented method set, a method a
//     standard-library interface calls, or a family of constructors that
//     callers pick from.
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
	"trace.FromValues":            "interface", // constructor family with New and NewWithCap
	"traffic.NoBaseload":          "sentinel",
	"units.Kilojoule":             "unit",
	"units.Microjoule":            "unit",
	"units.Millijoule":            "unit",
}

// unselectedMethodsAllowed lists the exported methods of internal/ types,
// keyed "pkg.Type.Method", whose name no non-test file selects, each with
// the one-word reason it stays (see unreferencedAllowed).
var unselectedMethodsAllowed = map[string]string{
	"energyacct.Ledger.Elapsed":     "seam",
	"faultfs.Host.AddEnergy":        "harness",
	"faultfs.Host.AddProcJiffies":   "harness",
	"faultfs.Host.CorruptEnergy":    "harness",
	"faultfs.Host.DeliveredJoules":  "harness",
	"faultfs.Host.ProcJiffies":      "harness",
	"faultfs.Host.RemoveProc":       "harness",
	"faultfs.Host.RemoveZone":       "harness",
	"faultfs.Host.Wraps":            "harness",
	"faultfs.Host.ZoneDir":          "harness",
	"faultfs.Injector.FailNext":     "harness",
	"faultfs.Injector.Only":         "harness",
	"faultfs.Injector.Restore":      "harness",
	"faultfs.Injector.SetBurstLen":  "harness",
	"faultfs.Injector.SetErrorRate": "harness",
	"faultfs.Injector.Vanish":       "harness",
	"machine.Run.ActiveSeries":      "reference",
	"machine.Run.ProcActiveSeries":  "reference",
	"machine.Run.ProcAt":            "reference",
	"machine.Run.ProcCPUSeries":     "reference",
	"machine.Run.ProcIDs":           "reference",
	"models.PowerAPI.Degenerate":    "seam",
	"models.SmartWatts.WarmBins":    "seam",
	"obs.Bucket.MarshalJSON":        "interface", // encoding/json
	"obs.Bucket.UnmarshalJSON":      "interface", // encoding/json
	"rapl.SimZone.Advance":          "seam",
	"report.Table.Markdown":         "interface", // EXPERIMENTS.md rendering (ROADMAP item 6)
	"rng.Source.Int63":              "interface", // math/rand.Source
	"serve.Server.Job":              "seam",
	"serve.Server.Jobs":             "seam",
	"serve.Server.Kill":             "seam",
}

// TestExportedSurface fails on an exported top-level identifier of an
// internal/ package that no non-test file of the module (perfbench
// included) refers to, unless unreferencedAllowed names it: such an
// identifier is dead code or test-only API. References are found
// syntactically — a selector through the package's import, or the bare
// name inside its own package — so a local of the same name hides a dead
// identifier, never the other way round. It fails likewise on an exported
// method of an internal/ type whose name no non-test file selects, unless
// unselectedMethodsAllowed names it. A method counts as referenced when any
// selector anywhere uses its name, whatever the receiver, except a
// package-qualified name such as sort.Slice or filepath.Dir: the check
// flags no method that is called, unless only through a local variable
// that shadows an import's name.
func TestExportedSurface(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "pkg.Name" → declaration
	methods := map[string]token.Position{}  // "pkg.Type.Method" → declaration
	used := map[string]bool{}
	selected := map[string]bool{} // names selected other than through an import
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
		for id, pos := range exportedMethods(file) {
			if pkg != "" {
				methods[pkg+"."+id] = fset.Position(pos)
			}
		}
		collectRefs(file, pkg, used, selected)
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
	dead = dead[:0]
	for id, pos := range methods {
		if name := id[strings.LastIndexByte(id, '.')+1:]; !selected[name] && unselectedMethodsAllowed[id] == "" {
			dead = append(dead, pos.String()+": "+id)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("method %s is selected by no non-test file; delete it or list it in unselectedMethodsAllowed with a reason", d)
	}
	for id := range unselectedMethodsAllowed {
		if _, ok := methods[id]; !ok {
			t.Errorf("unselectedMethodsAllowed lists %s, which is not declared", id)
		} else if selected[id[strings.LastIndexByte(id, '.')+1:]] {
			t.Errorf("unselectedMethodsAllowed lists %s, whose name a non-test file selects", id)
		}
	}
}

// exportedMethods returns the exported methods a file declares, keyed
// "Type.Method" by the receiver's base type name.
func exportedMethods(file *ast.File) map[string]token.Pos {
	out := map[string]token.Pos{}
	for _, decl := range file.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || d.Recv == nil || !d.Name.IsExported() {
			continue
		}
		typ := d.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		switch t := typ.(type) {
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			out[id.Name+"."+d.Name.Name] = d.Name.Pos()
		}
	}
	return out
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
// to internal/<pkg> — bare identifiers other than declaration names. It
// marks in selected every other selected name, fields and methods, but
// not a package-qualified name such as sort.Slice: a call into another
// package selects none of this module's methods.
func collectRefs(file *ast.File, pkg string, used, selected map[string]bool) {
	imports := map[string]string{} // local name → internal package, "" outside internal/
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		rest, ok := strings.CutPrefix(path, "powerdiv/internal/")
		if !ok {
			rest = ""
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
					if p != "" {
						used[p+"."+n.Sel.Name] = true
					}
					return false
				}
			}
			decls[n.Sel] = true // a field or method name, not a package-level one
			selected[n.Sel.Name] = true
		case *ast.Ident:
			if pkg != "" && !decls[n] {
				used[pkg+"."+n.Name] = true
			}
		}
		return true
	})
}
