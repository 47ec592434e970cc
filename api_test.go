package gossip

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestRootExportsHaveUsers keeps the root API from regrowing: every exported
// name in gossip.go must be used by a command, an example, the benchmark or
// an Example function, or appear in the declaration of a name that is (a
// field type, a parameter or a result). The package's own tests do not count.
func TestRootExportsHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	root, err := parser.ParseFile(fset, "gossip.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]ast.Node{} // exported name → the node declaring it
	for _, d := range root.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						decls[s.Name.Name] = s.Type
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							decls[n.Name] = s
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	var files []string
	for _, pattern := range []string{"cmd/*/*.go", "examples/*/*.go", "benchmark/*.go", "*_test.go"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "gossip" {
				local = "gossip"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue // the package's own tests, or no import of it
		}
		var scope ast.Node = f
		if strings.HasSuffix(path, "_test.go") && filepath.Dir(path) == "." {
			scope = examplesOnly(f)
		}
		ast.Inspect(scope, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	// A used name keeps every exported name its declaration mentions.
	for grew := true; grew; {
		grew = false
		for name := range used {
			node, ok := decls[name]
			if !ok {
				continue
			}
			ast.Inspect(node, func(n ast.Node) bool {
				if _, ok := n.(*ast.SelectorExpr); ok {
					return false // another package's name
				}
				if id, ok := n.(*ast.Ident); ok && decls[id.Name] != nil && !used[id.Name] {
					used[id.Name] = true
					grew = true
				}
				return true
			})
		}
	}

	var unused []string
	for name := range decls {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("gossip.go exports %d of %d names with no user in cmd/, examples/, benchmark/ or an Example function: %s",
			len(unused), len(decls), strings.Join(unused, ", "))
	}
	t.Logf("gossip.go exports %d names", len(decls))
}

// examplesOnly returns a file holding just f's Example functions.
func examplesOnly(f *ast.File) *ast.File {
	out := &ast.File{Name: f.Name}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") {
			out.Decls = append(out.Decls, fn)
		}
	}
	return out
}
