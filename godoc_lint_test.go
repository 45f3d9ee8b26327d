package usd

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestGodocCoverage fails for every exported identifier in a package under
// internal/ that lacks a doc comment: package clauses, top-level types,
// functions, methods on exported types, consts, vars, exported struct
// fields, and interface methods. CI runs it as its missing-doc lint step;
// the packages are found by listing internal/, so a new one is audited
// without an edit here.
func TestGodocCoverage(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			packageDocumented := false
			for _, f := range pkg.Files {
				if f.Doc != nil {
					packageDocumented = true
				}
			}
			if !packageDocumented {
				t.Errorf("%s: package %s has no package doc comment", dir, pkg.Name)
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					lintDecl(t, fset, decl)
				}
			}
		}
	}
}

// lintDecl reports undocumented exported identifiers of one top-level
// declaration.
func lintDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	report := func(pos token.Pos, what string) {
		t.Errorf("%s: %s is exported but has no doc comment", fset.Position(pos), what)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !receiverExported(d) {
			return
		}
		if d.Doc == nil {
			report(d.Pos(), "func/method "+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if d.Doc == nil && s.Doc == nil {
					report(s.Pos(), "type "+s.Name.Name)
				}
				lintTypeBody(t, fset, s)
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					// A doc on the const/var block covers the group; a doc
					// or trailing comment on the spec covers the name.
					if d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(name.Pos(), fmt.Sprintf("const/var %s", name.Name))
					}
				}
			}
		}
	}
}

// lintTypeBody reports undocumented exported struct fields and interface
// methods of an exported type.
func lintTypeBody(t *testing.T, fset *token.FileSet, s *ast.TypeSpec) {
	report := func(pos token.Pos, what string) {
		t.Errorf("%s: %s of %s is exported but has no doc comment", fset.Position(pos), what, s.Name.Name)
	}
	switch tt := s.Type.(type) {
	case *ast.StructType:
		for _, field := range tt.Fields.List {
			if field.Doc != nil || field.Comment != nil {
				continue
			}
			for _, name := range field.Names {
				if name.IsExported() {
					report(name.Pos(), "field "+name.Name)
				}
			}
		}
	case *ast.InterfaceType:
		for _, m := range tt.Methods.List {
			if m.Doc != nil || m.Comment != nil {
				continue
			}
			for _, name := range m.Names {
				if name.IsExported() {
					report(name.Pos(), "method "+name.Name)
				}
			}
		}
	}
}

// receiverExported reports whether a function is either free-standing or a
// method on an exported type (methods on unexported types are not part of
// the exported API surface).
func receiverExported(d *ast.FuncDecl) bool {
	return d.Recv == nil || ast.IsExported(recvTypeName(d))
}

// recvTypeName returns the base type name of a method's receiver.
func recvTypeName(d *ast.FuncDecl) string {
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			typ = tt.X
		case *ast.IndexListExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			panic(fmt.Sprintf("receiver type %T", typ))
		}
	}
}
