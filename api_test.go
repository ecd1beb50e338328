package meda_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported functions and methods of the module that
// no non-test file names, each kept for the reason given.
var testOnlyExports = map[string]string{
	"MarshalText":          "action.Action: encoding reaches it by reflection",
	"UnmarshalText":        "action.Action: encoding reaches it by reflection",
	"Dirs":                 "action.Action: the Table II frontier tests check the paper's table through it",
	"CertifyMaxReachProb":  "mdp: certificate tool that ROADMAP item 1 brings into production",
	"EvaluatePolicyReward": "mdp: certificate tool that ROADMAP item 1 brings into production",
	"EvaluatePolicyReach":  "mdp: certificate tool that ROADMAP item 1 brings into production",
	"IsNotFound":           "pkg/client: public SDK",
	"FaultTrialViolations": "meda facade: public API",
	"CloseHandshake":       "ws.Conn: the RFC 6455 close of the transport the SDK dials",
	"StuckCells":           "fault.Injector: tests observe stuck-cell placement and determinism through it",
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in the module (outside internal/lint, whose analyzers mirror an external
// API) is named by no non-test file of the module or of loopbench, and is
// not on testOnlyExports. Such a name is reached only by tests: delete it
// with the tests that test only it, or list it with its reason.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ name, pos string }
	var decls []decl
	declared := map[*ast.Ident]bool{}
	uses := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		own := !strings.HasPrefix(path, "loopbench/") && !strings.HasPrefix(path, "internal/lint/")
		for _, dd := range f.Decls {
			if fd, ok := dd.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				declared[fd.Name] = true
				if own {
					decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Pos()).String()})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found; is the test running at the module root?")
	}
	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] > 0 {
			continue
		}
		seen[d.name] = true
		if _, ok := testOnlyExports[d.name]; !ok {
			unused = append(unused, d.pos+": "+d.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is named by no non-test file: delete it or list it in testOnlyExports", u)
	}
	for name := range testOnlyExports {
		if !seen[name] {
			t.Errorf("testOnlyExports lists %s, which is no longer test-only: drop the entry", name)
		}
	}
}
