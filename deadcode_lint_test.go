package usd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// testOnlyAllowlist names the declarations under internal/ and cmd/ that no
// non-test code uses but that stay, each with the reason it stays. They are
// reference implementations and test harness that tests in more than one
// place compare against or run over. A key is the package-qualified name:
// pkg.Func, pkg.Type, or pkg.Type.Method.
var testOnlyAllowlist = map[string]string{
	"rng.Source.Geometric":        "stream-equality reference of GeometricU128 (rng128_test.go)",
	"rng.Source.NegativeBinomial": "stream-equality reference of NegativeBinomialU128 (rng128_test.go)",
	"potential.UndecidedProbs":    "Observation 6 rates that core_test and pop_test check the engines against",
	"potential.OpinionProbs":      "Observation 8 rates that core_test and pop_test check the engines against",
	"potential.Probs.Productive":  "productive-interaction rate that core_test and pop_test check the engines against",
	"stats.ChiSquareCritical":     "critical value of the conformance chi-square gate",
	"dist.PipeLauncher":           "in-process launcher the dist, experiment, core-conformance and cmd/bench tests run the protocol over",
}

// reflectionOnlyMethods names methods that only the standard library calls,
// through an interface it checks for by reflection, so no identifier in the
// module ever names them.
var reflectionOnlyMethods = map[string]string{
	"MarshalJSON": "encoding/json calls it through json.Marshaler",
}

// declUnit is one top-level declaration: a func or method, or one spec of
// a type, const or var block.
type declUnit struct {
	key     string // package-qualified name, pkg.Name or pkg.Type.Method
	name    string
	pos     token.Position
	checked bool // declared under internal/ or cmd/
}

// TestNoTestOnlyCode fails for every top-level func, method, type, const and
// var declared under internal/ or cmd/ whose name appears as an identifier
// in no other top-level declaration of the module's non-test Go, perfbench/
// and examples/ included. The declaration's own name and a method's
// receiver do not count as uses. The root package's exported API is the
// public library surface and is not checked. Entries of testOnlyAllowlist
// are exempt, and the test fails on an entry that is no longer declared or
// that now has a non-test use.
//
// Matching is by name only, so it can miss dead code but never flags a name
// that is called: a call of big.Int's Cmp, say, would hide a dead
// u128.U128.Cmp, and a live String method on one type hides a dead one on
// another.
func TestNoTestOnlyCode(t *testing.T) {
	fset := token.NewFileSet()
	var units []declUnit
	users := map[string][]int{} // identifier name -> units that mention it
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := path.Base(dir)
		if dir == "." {
			pkg = f.Name.Name
		}
		checked := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		add := func(key string, name *ast.Ident, check bool, mentions map[string]bool) {
			id := len(units)
			units = append(units, declUnit{key, name.Name, fset.Position(name.Pos()), checked && check})
			for m := range mentions {
				users[m] = append(users[m], id)
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				m := mentionedNames(d, d.Name, d.Recv)
				if d.Recv == nil {
					add(pkg+"."+d.Name.Name, d.Name, d.Name.Name != "main" && d.Name.Name != "init", m)
					continue
				}
				_, reflected := reflectionOnlyMethods[d.Name.Name]
				add(pkg+"."+recvTypeName(d)+"."+d.Name.Name, d.Name, !reflected, m)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(pkg+"."+s.Name.Name, s.Name, true, mentionedNames(s, s.Name))
					case *ast.ValueSpec:
						skip := make([]ast.Node, len(s.Names))
						for i, name := range s.Names {
							skip[i] = name
						}
						m := mentionedNames(s, skip...)
						for _, name := range s.Names {
							add(pkg+"."+name.Name, name, name.Name != "_", m)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := func(i int) bool {
		for _, j := range users[units[i].name] {
			if j != i {
				return true
			}
		}
		return false
	}
	declared := map[string]bool{}
	for i, u := range units {
		if !u.checked {
			continue
		}
		declared[u.key] = true
		if _, ok := testOnlyAllowlist[u.key]; ok {
			if used(i) {
				t.Errorf("%s: %s has a non-test use now; drop it from testOnlyAllowlist", u.pos, u.key)
			}
			continue
		}
		if !used(i) {
			t.Errorf("%s: %s is used by no non-test code; delete it, or allowlist it with a reason", u.pos, u.key)
		}
	}
	for key := range testOnlyAllowlist {
		if !declared[key] {
			t.Errorf("testOnlyAllowlist entry %s is not declared under internal/ or cmd/; drop it", key)
		}
	}
}

// mentionedNames returns the identifier names under root, leaving out the
// subtrees in skip: a declaration's own name and a method's receiver.
func mentionedNames(root ast.Node, skip ...ast.Node) map[string]bool {
	names := map[string]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		for _, s := range skip {
			if n == s {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			names[id.Name] = true
		}
		return true
	})
	return names
}
