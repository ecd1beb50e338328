package meda_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the functions and methods of the module that no
// non-test file reaches, each kept for the reason given. Keys are the
// qualified names TestNoTestOnlyExports prints: package path below the
// module (without "internal/"), receiver and name.
var testOnlyExports = map[string]string{
	"action.Action.Dirs":                    "the Table II frontier tests check the paper's table through it",
	"circuit.Result.Class":                  "the paper's Sec. III three-way health classification; only tests check it, as with Action.Dirs",
	"circuit.HealthClass.HealthBits":        "the paper's Sec. III three-way health classification; only tests check it, as with Action.Dirs",
	"mdp.(*MDP).CertifyMaxReachProb":        "certificate tool that ROADMAP item 1 brings into production",
	"mdp.(*MDP).EvaluatePolicyReward":       "certificate tool that ROADMAP item 1 brings into production",
	"mdp.(*MDP).EvaluatePolicyReach":        "certificate tool that ROADMAP item 1 brings into production",
	"mdp.IntervalResult.Width":              "goes with the interval tools of ROADMAP item 1",
	"mdp.(*ConvergenceError).Unwrap":        "errors.Is and errors.As reach it through an anonymous interface",
	"sim.(*CheckpointAbort).Unwrap":         "errors.Is and errors.As reach it through an anonymous interface",
	"chip.(*Chip).MC":                       "test observation point: a cell's degradation state",
	"chip.(*Chip).Actuations":               "test observation point: a cell's actuation count",
	"sched.(*Cache).Len":                    "test observation point: the Cache's occupancy and eviction",
	"sched.(*Cache).Stats":                  "test observation point: the Cache's hit and miss counts",
	"sched.(*Fallback).Stats":               "test observation point: which router served each route",
	"fault.(*Injector).StuckCells":          "test observation point: stuck-cell placement and determinism",
	"fault.(*Injector).Plan":                "test observation point: the only view of how defaults fill a fault plan",
	"randx.(*Source).Bool":                  "test-data generator used by the tests of six packages",
	"device.(*Conn).Hold":                   "Go client of the hold op the device server serves",
	"device.(*Conn).Remove":                 "Go client of the remove op the device server serves",
	"ws.(*Conn).CloseHandshake":             "the RFC 6455 close of the transport the SDK dials",
	"meda.FaultTrialViolations":             "facade: public API",
	"pkg/client.IsNotFound":                 "public SDK",
	"pkg/client.(*Client).Tenants":          "public SDK: one method per service endpoint",
	"pkg/client.(*Client).Chips":            "public SDK: one method per service endpoint",
	"pkg/client.(*Client).ChipHealth":       "public SDK: one method per service endpoint",
	"pkg/client.(*Client).UploadChipHealth": "public SDK: one method per service endpoint",
	"pkg/client.(*Client).CancelJob":        "public SDK: one method per service endpoint",
	"pkg/client.(*Client).AddWebhook":       "public SDK: one method per service endpoint",
	"pkg/client.(*Client).Webhooks":         "public SDK: one method per service endpoint",
	"pkg/client.(*Client).Jobs":             "public SDK: one method per service endpoint",
}

// TestNoTestOnlyExports fails when a function or method declared in a
// non-test file of the module (outside internal/lint, whose analyzers
// mirror an external API) is reached by no non-test file of the module,
// in the default or the medacheck build, or of loopbench, and is not on
// testOnlyExports. A reference counts when the type checker resolves it to
// the declaration itself, so a same-named function elsewhere does not
// hide an unused one. A method is also reached when its receiver type
// implements an interface, declared in the module or in a package it
// imports, that has a method of that name. Delete what is reached only by
// tests, with the tests that test only it, or list it with its reason.
func TestNoTestOnlyExports(t *testing.T) {
	r := newReach(t)
	defaults := r.scan(".", "", nil)
	r.scan(".", "medacheck", nil)
	r.scan("loopbench", "", defaults)
	if len(r.decls) == 0 {
		t.Fatal("no function declarations found; is the test running at the module root?")
	}
	var unreached []string
	for key, pos := range r.decls {
		if r.reached[key] {
			continue
		}
		if _, ok := testOnlyExports[key]; !ok {
			unreached = append(unreached, pos+": "+key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is reached by no non-test file: delete it or list it in testOnlyExports", u)
	}
	for key := range testOnlyExports {
		if _, ok := r.decls[key]; !ok {
			t.Errorf("testOnlyExports lists %s, which declares nothing: drop the entry", key)
		} else if r.reached[key] {
			t.Errorf("testOnlyExports lists %s, which is no longer test-only: drop the entry", key)
		}
	}
}

const modulePath = "meda"

// reach type-checks the module's non-test files from source and records
// which of its functions and methods they reach. Standard-library imports
// come from the toolchain's export data, located with go list.
type reach struct {
	t       *testing.T
	fset    *token.FileSet
	std     types.Importer
	exports map[string]string // std import path → export data file
	decls   map[string]string // qualified name → position of its declaration
	reached map[string]bool
}

func newReach(t *testing.T) *reach {
	r := &reach{
		t:       t,
		fset:    token.NewFileSet(),
		exports: map[string]string{},
		decls:   map[string]string{},
		reached: map[string]bool{},
	}
	r.std = importer.ForCompiler(r.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := r.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	return r
}

type listed struct {
	path, dir string
	files     []string
	std       bool
}

// goList runs go list in dir and returns its output lines.
func (r *reach) goList(dir string, args ...string) []string {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		r.t.Fatalf("go list in %s: %v", dir, err)
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n")
}

// scan type-checks one build of the module (or of loopbench, whose meda
// imports are taken from base) and records its declarations and uses.
func (r *reach) scan(dir, tags string, base map[string]*types.Package) map[string]*types.Package {
	var pkgs []listed
	var missing []string
	for _, line := range r.goList(dir, "-deps", "-tags="+tags, "-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Standard}}\t{{join .GoFiles \" \"}}", "./...") {
		f := strings.Split(line, "\t")
		p := listed{path: f[0], dir: f[1], std: f[2] == "true", files: strings.Fields(f[3])}
		if _, ok := r.exports[p.path]; p.std && !ok && p.path != "unsafe" {
			missing = append(missing, p.path)
		}
		pkgs = append(pkgs, p)
	}
	if len(missing) > 0 {
		for _, line := range r.goList(dir, append([]string{"-export", "-f", "{{.ImportPath}}\t{{.Export}}", "--"}, missing...)...) {
			path, file, _ := strings.Cut(line, "\t")
			r.exports[path] = file
		}
	}
	checked := map[string]*types.Package{}
	for path, p := range base {
		checked[path] = p
	}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return r.std.Import(path)
	})
	var ifaces []*types.Interface
	var named []*types.Named
	for _, p := range pkgs {
		if p.std {
			if p.path == "unsafe" {
				continue
			}
			sp, err := r.std.Import(p.path)
			if err != nil {
				r.t.Fatal(err)
			}
			for _, name := range sp.Scope().Names() {
				ifaces = appendIface(ifaces, sp.Scope().Lookup(name))
			}
			continue
		}
		if _, ok := checked[p.path]; ok {
			continue
		}
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(r.fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				r.t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, r.fset, files, info)
		if err != nil {
			r.t.Fatalf("type-checking %s (tags %q): %v", p.path, tags, err)
		}
		checked[p.path] = tp
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				ifaces = appendIface(ifaces, tn)
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
		own := base == nil && p.path != modulePath+"/internal/lint" && !strings.HasPrefix(p.path, modulePath+"/internal/lint/")
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					r.markUses(d, info, nil)
					continue
				}
				self := info.Defs[fd.Name].(*types.Func)
				r.markUses(fd, info, self)
				if own && fd.Name.Name != "init" && !(tp.Name() == "main" && fd.Name.Name == "main") {
					if key := qualified(self); r.decls[key] == "" {
						r.decls[key] = r.fset.Position(fd.Pos()).String()
					}
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	byMethod := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			for _, it := range byMethod[m.Name()] {
				if types.Implements(ptr, it) {
					r.reached[qualified(m)] = true
					break
				}
			}
		}
	}
	return checked
}

// markUses records every module function that node refers to, other than
// self (a recursive call does not reach a function).
func (r *reach) markUses(node ast.Node, info *types.Info, self *types.Func) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self && fn.Pkg() != nil {
			if path := fn.Pkg().Path(); path == modulePath || strings.HasPrefix(path, modulePath+"/") {
				r.reached[qualified(fn)] = true
			}
		}
		return true
	})
}

// appendIface appends the method-set interface obj names, if it names one
// with methods; generic interfaces are skipped.
func appendIface(ifaces []*types.Interface, obj types.Object) []*types.Interface {
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return ifaces
	}
	if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
		return ifaces
	}
	if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
		return append(ifaces, it)
	}
	return ifaces
}

// qualified names a function by its package path below the module (with
// "internal/" dropped), its receiver and its name: telemetry.With,
// chip.(*Chip).MC, mdp.IntervalResult.Width.
func qualified(fn *types.Func) string {
	fn = fn.Origin()
	path := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/"), "internal/")
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return path + "." + fn.Name()
	}
	t, star := recv.Type(), false
	if p, ok := t.(*types.Pointer); ok {
		t, star = p.Elem(), true
	}
	name := types.TypeString(t, func(*types.Package) string { return "" })
	if star {
		return path + ".(*" + name + ")." + fn.Name()
	}
	return path + "." + name + "." + fn.Name()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
