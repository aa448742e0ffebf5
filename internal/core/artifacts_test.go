package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// TestAblationsRegistered keeps every exported Ablation<X> in this
// package reachable by name: Artifacts() must hold an entry named <x>
// (X lowercased) and its body must call Ablation<X>, so `hpcbd <x>`
// regenerates the numbers EXPERIMENTS.md cites.
func TestAblationsRegistered(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ablations []string
	referenced := map[string]bool{}
	for _, f := range pkgs["core"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if strings.HasPrefix(fn.Name.Name, "Ablation") && fn.Name.IsExported() {
				ablations = append(ablations, fn.Name.Name)
			}
			if fn.Name.Name == "Artifacts" {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						referenced[id.Name] = true
					}
					return true
				})
			}
		}
	}
	if len(ablations) == 0 {
		t.Fatal("found no Ablation functions")
	}
	var names []string
	for _, a := range Artifacts() {
		names = append(names, a.Name)
	}
	for _, fn := range ablations {
		name := strings.ToLower(strings.TrimPrefix(fn, "Ablation"))
		if !slices.Contains(names, name) {
			t.Errorf("%s has no Artifacts() entry named %q", fn, name)
		}
		if !referenced[fn] {
			t.Errorf("Artifacts() never calls %s", fn)
		}
	}
}
