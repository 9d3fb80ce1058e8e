package datampi_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite api.txt from the current public surface")

// TestAPISurface pins the package's exported surface to api.txt: adding,
// removing or re-typing an exported symbol fails this test until the
// golden file is deliberately regenerated with
//
//	go test -run TestAPISurface -update-api .
//
// so accidental API breaks are caught in CI, and intentional ones leave a
// reviewable diff.
func TestAPISurface(t *testing.T) {
	got := renderAPISurface(t)
	if *updateAPI {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("api.txt unreadable (regenerate with -update-api): %v", err)
	}
	if got != string(want) {
		t.Errorf("public API surface drifted from api.txt — if intentional, regenerate with -update-api\n--- api.txt\n%s--- current\n%s", want, got)
	}
}

// renderAPISurface parses the package in this directory and renders every
// exported declaration, sorted, one blank-line-separated block each. An
// alias of an internal/core struct type also renders the struct's
// exported fields, so a field added to or removed from Config or Job
// shows in the golden diff.
func renderAPISurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkg := parsePackage(t, fset, ".", "datampi")
	structs := coreStructs(parsePackage(t, fset, "internal/core", "core"))
	var decls []string
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				d.Doc, d.Body = nil, nil
				decls = append(decls, printNode(t, fset, d))
			case *ast.GenDecl:
				var specs []ast.Spec
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							specs = append(specs, s)
							if st := aliasedStruct(s, structs); st != nil {
								if f := renderFields(t, fset, s.Name.Name, st); f != "" {
									decls = append(decls, f)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								specs = append(specs, s)
								break
							}
						}
					}
				}
				if len(specs) == 0 {
					continue
				}
				d.Doc, d.Specs = nil, specs
				decls = append(decls, printNode(t, fset, d))
			}
		}
	}
	sort.Strings(decls)
	return strings.Join(decls, "\n\n") + "\n"
}

// parsePackage parses the non-test files of the named package in dir.
func parsePackage(t *testing.T, fset *token.FileSet, dir, name string) *ast.Package {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[name]
	if pkg == nil {
		t.Fatalf("package %s not found in %s", name, dir)
	}
	return pkg
}

// coreStructs maps every struct type declared in package core by name.
func coreStructs(pkg *ast.Package) map[string]*ast.StructType {
	structs := map[string]*ast.StructType{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					structs[ts.Name.Name] = st
				}
			}
			return true
		})
	}
	return structs
}

// aliasedStruct returns the core struct an alias `T = core.U` names, or
// nil.
func aliasedStruct(s *ast.TypeSpec, structs map[string]*ast.StructType) *ast.StructType {
	sel, ok := s.Type.(*ast.SelectorExpr)
	if !s.Assign.IsValid() || !ok {
		return nil
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "core" {
		return nil
	}
	return structs[sel.Sel.Name]
}

// renderFields renders the exported fields of an aliased struct, one a
// line, without their comments; "" when it has none.
func renderFields(t *testing.T, fset *token.FileSet, alias string, st *ast.StructType) string {
	t.Helper()
	var lines []string
	for _, f := range st.Fields.List {
		var names []string
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n.Name)
			}
		}
		if len(names) > 0 {
			lines = append(lines, fmt.Sprintf("\t%s %s\n", strings.Join(names, ", "), printNode(t, fset, f.Type)))
		}
	}
	if len(lines) == 0 {
		return ""
	}
	return alias + " fields {\n" + strings.Join(lines, "") + "}"
}

func printNode(t *testing.T, fset *token.FileSet, node any) string {
	t.Helper()
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.TabIndent, Tabwidth: 8}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
