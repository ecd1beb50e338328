package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module. The
// package under analysis is always checked from source; its imports are
// satisfied from the toolchain's export data, located with `go list
// -export` (a purely local operation against the build cache), so loading
// needs no network and no third-party machinery.
type Loader struct {
	ModRoot string
	modPath string
	fset    *token.FileSet
	exports map[string]string // import path → export data file
	warmed  bool              // bulk export warmup has run
	gc      types.Importer
	cache   map[string]*Package // by absolute dir
}

// NewLoader returns a loader rooted at the module containing dir (dir
// itself or an ancestor must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModRoot: root,
		modPath: modPath,
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
		cache:   make(map[string]*Package),
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l, nil
}

// warmExports fills the export map with every dependency of the module in
// one go list run, on the first export-data miss; stragglers (imports that
// only testdata packages use) are still resolved per-path by exportFile.
func (l *Loader) warmExports() {
	if l.warmed {
		return
	}
	l.warmed = true
	out, err := l.golist("list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	if err == nil {
		for _, line := range strings.Split(out, "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				l.exports[path] = file
			}
		}
	}
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

func (l *Loader) golist(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModRoot
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return "", fmt.Errorf("go %s: %v: %s", strings.Join(args, " "), err, ee.Stderr)
		}
		return "", fmt.Errorf("go %s: %v", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// exportFile locates the export data of an import path, asking the go
// command to (re)build it into the build cache on a cache miss.
func (l *Loader) exportFile(path string) (string, error) {
	if f, ok := l.exports[path]; ok {
		return f, nil
	}
	if l.warmExports(); l.exports[path] != "" {
		return l.exports[path], nil
	}
	out, err := l.golist("list", "-export", "-f", "{{.Export}}", "--", path)
	if err != nil {
		return "", err
	}
	if out == "" {
		return "", fmt.Errorf("analysis: no export data for %q", path)
	}
	l.exports[path] = out
	return out, nil
}

// lookup feeds the gc importer from the build cache.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	f, err := l.exportFile(path)
	if err != nil {
		return nil, err
	}
	return os.Open(f)
}

// Import implements types.Importer for the packages under analysis.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return l.gc.Import(path)
}

// Dirs expands go package patterns (./..., specific import paths, or
// directory arguments) into package directories, in go list order.
func (l *Loader) Dirs(patterns ...string) ([]string, error) {
	args := append([]string{"list", "-f", "{{.Dir}}", "--"}, patterns...)
	out, err := l.golist(args...)
	if err != nil {
		return nil, err
	}
	if out == "" {
		return nil, nil
	}
	return strings.Split(out, "\n"), nil
}

// PkgMeta is the go list metadata of one package, gathered without parsing
// or type-checking it.
type PkgMeta struct {
	Path    string
	Dir     string
	Imports []string
}

// PackagesInDependencyOrder expands patterns into package metadata, ordered
// so every matched package appears after the matched packages it imports.
// Drivers that propagate Facts across packages analyze in this order, so a
// pass importing a fact about an upstream package finds what the upstream
// pass exported. Ties keep go list order, making the output deterministic.
func (l *Loader) PackagesInDependencyOrder(patterns ...string) ([]*PkgMeta, error) {
	const format = "{{.ImportPath}}\t{{.Dir}}\t{{range .Imports}}{{.}} {{end}}"
	out, err := l.golist(append([]string{"list", "-f", format, "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var matched []*PkgMeta
	if out != "" {
		for _, line := range strings.Split(out, "\n") {
			parts := strings.SplitN(line, "\t", 3)
			if len(parts) < 2 {
				return nil, fmt.Errorf("analysis: malformed go list line %q", line)
			}
			m := &PkgMeta{Path: parts[0], Dir: parts[1]}
			// The imports field vanishes entirely for an import-free package
			// at the end of the output (TrimSpace eats trailing tabs).
			if len(parts) > 2 {
				m.Imports = strings.Fields(parts[2])
			}
			matched = append(matched, m)
		}
	}

	inMatch := make(map[string]*PkgMeta, len(matched))
	for _, m := range matched {
		inMatch[m.Path] = m
	}
	var ordered []*PkgMeta
	visited := make(map[string]bool, len(matched))
	var visit func(path string)
	visit = func(path string) {
		if visited[path] {
			return
		}
		visited[path] = true
		m, ok := inMatch[path]
		if !ok {
			return // import outside the matched set
		}
		for _, imp := range m.Imports {
			visit(imp)
		}
		ordered = append(ordered, m)
	}
	for _, m := range matched {
		visit(m.Path)
	}
	return ordered, nil
}

// DirsInDependencyOrder expands patterns like Dirs but orders the result
// so every package appears after the packages it imports (restricted to
// the matched set).
func (l *Loader) DirsInDependencyOrder(patterns ...string) ([]string, error) {
	metas, err := l.PackagesInDependencyOrder(patterns...)
	if err != nil {
		return nil, err
	}
	dirs := make([]string, len(metas))
	for i, m := range metas {
		dirs[i] = m.Dir
	}
	return dirs, nil
}

// LoadDir parses and type-checks the package in dir. Build constraints are
// honored and _test.go files are excluded, matching what ships in the
// binary. Results are memoized per directory.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.cache[abs]; ok {
		return p, nil
	}
	ctx := build.Default
	bp, err := ctx.ImportDir(abs, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	path := l.importPathFor(abs)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var terrs []string
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err.Error()) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s failed:\n  %s", path, strings.Join(terrs, "\n  "))
	}
	p := &Package{Path: path, Dir: abs, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[abs] = p
	return p, nil
}

// importPathFor derives the import path of a directory inside the module;
// directories outside it (never the case in practice) keep their base name.
func (l *Loader) importPathFor(abs string) string {
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(abs)
	}
	if rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}
