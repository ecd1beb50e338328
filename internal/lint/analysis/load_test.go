package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestNewLoaderOutsideModule(t *testing.T) {
	_, err := NewLoader(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "no go.mod") {
		t.Fatalf("NewLoader outside a module: got %v, want a no-go.mod error", err)
	}
}

func TestNewLoaderModuleDirectiveMissing(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "go.mod", "// not a module directive\n")
	_, err := NewLoader(dir)
	if err == nil || !strings.Contains(err.Error(), "no module directive") {
		t.Fatalf("NewLoader with an empty go.mod: got %v, want a module-directive error", err)
	}
}

func TestLoadDirWithoutGoFiles(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDir(t.TempDir()); err == nil {
		t.Fatal("LoadDir on a directory with no Go files: got nil error")
	}
}

func TestLoadDirTypeError(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write(t, dir, "bad.go", "package bad\n\nfunc f() { undeclared() }\n")
	_, err = l.LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("LoadDir on an ill-typed package: got %v, want a type-checking error", err)
	}
	if !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("type error does not mention the offending identifier: %v", err)
	}
}

func TestLoadDirUnresolvableImport(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write(t, dir, "imp.go", "package imp\n\nimport _ \"example.invalid/no/such/module\"\n")
	if _, err := l.LoadDir(dir); err == nil {
		t.Fatal("LoadDir importing an unresolvable module: got nil error")
	}
}

func TestDirsBadPattern(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.PackagesInDependencyOrder("./no/such/dir/anywhere"); err == nil {
		t.Fatal("PackagesInDependencyOrder on a nonexistent pattern: got nil error")
	}
}

// TestDirsInDependencyOrder: dataflow imports cfg, so cfg's directory must
// come first however the patterns are ordered.
func TestDirsInDependencyOrder(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.PackagesInDependencyOrder("./internal/lint/dataflow", "./internal/lint/cfg")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	if filepath.Base(pkgs[0].Dir) != "cfg" || filepath.Base(pkgs[1].Dir) != "dataflow" {
		t.Errorf("dependency order wrong: %s, %s (want cfg before dataflow)", pkgs[0].Dir, pkgs[1].Dir)
	}
}

func TestLoadDirMemoizes(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := l.LoadDir(filepath.Join(l.ModRoot, "internal", "lint", "cfg"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := l.LoadDir(filepath.Join(l.ModRoot, "internal", "lint", "cfg"))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("LoadDir did not memoize the package")
	}
	if p1.Path != "meda/internal/lint/cfg" {
		t.Errorf("import path = %q, want meda/internal/lint/cfg", p1.Path)
	}
}
