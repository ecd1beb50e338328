package cache

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"meda/internal/lint/analysis"
)

// testFact mirrors the shape of real summary facts: a witness position
// that must not survive serialization, and payload that must.
type testFact struct {
	Kind string
	Pos  token.Pos
	Sub  []testSub
}

type testSub struct {
	Via string
	Pos token.Pos
}

func (*testFact) AFact() {}

func init() { RegisterFact(&testFact{}) }

func TestEntryRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{
		Findings: []Finding{{
			Analyzer: "floatcmp", File: "x.go", Line: 3, Column: 7,
			Message: "raw == on floating-point values; use an epsilon helper",
		}},
		ObjectFacts: []analysis.ObjectFactRecord{{
			Key:  "meda/internal/mdp.Builder.Add",
			Fact: &testFact{Kind: "make", Pos: 42, Sub: []testSub{{Via: "grow", Pos: 99}}},
		}},
	}
	if err := c.Store("k1", e); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load("k1")
	if !ok {
		t.Fatal("stored entry did not load")
	}
	if len(got.Findings) != 1 || got.Findings[0] != e.Findings[0] {
		t.Errorf("findings did not round-trip: %+v", got.Findings)
	}
	if len(got.ObjectFacts) != 1 {
		t.Fatalf("object facts did not round-trip: %+v", got.ObjectFacts)
	}
	f, ok := got.ObjectFacts[0].Fact.(*testFact)
	if !ok {
		t.Fatalf("fact decoded as %T, want *testFact", got.ObjectFacts[0].Fact)
	}
	if f.Kind != "make" || len(f.Sub) != 1 || f.Sub[0].Via != "grow" {
		t.Errorf("fact payload lost: %+v", f)
	}
	if f.Pos != token.NoPos || f.Sub[0].Pos != token.NoPos {
		t.Errorf("positions not scrubbed: Pos=%v Sub.Pos=%v", f.Pos, f.Sub[0].Pos)
	}
}

func TestLoadMissAndCorrupt(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("absent-key"); ok {
		t.Error("absent key loaded")
	}
	if err := c.Store("k2", &Entry{}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path("k2"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("k2"); ok {
		t.Error("corrupt entry loaded")
	}
	if _, err := os.Stat(c.path("k2")); !os.IsNotExist(err) {
		t.Error("corrupt entry was not removed")
	}
}

func TestKeyDeterminismAndSensitivity(t *testing.T) {
	deps := map[string]string{"a": "k-a", "b": "k-b"}
	k1 := Key("salt", "pkg", "src", deps)
	k2 := Key("salt", "pkg", "src", map[string]string{"b": "k-b", "a": "k-a"})
	if k1 != k2 {
		t.Error("key depends on dep map iteration order")
	}
	for name, other := range map[string]string{
		"salt":    Key("salt2", "pkg", "src", deps),
		"package": Key("salt", "pkg2", "src", deps),
		"source":  Key("salt", "pkg", "src2", deps),
		"deps":    Key("salt", "pkg", "src", map[string]string{"a": "k-a2", "b": "k-b"}),
	} {
		if other == k1 {
			t.Errorf("key insensitive to %s change", name)
		}
	}
}

func TestHashFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", "package p\n")
	write("b.go", "package p\nvar X = 1\n")
	h1, err := HashFiles(dir, []string{"a.go", "b.go"})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashFiles(dir, []string{"b.go", "a.go"})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("hash depends on file order")
	}
	write("b.go", "package p\nvar X = 2\n")
	h3, err := HashFiles(dir, []string{"a.go", "b.go"})
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Error("hash insensitive to content change")
	}
	if _, err := HashFiles(dir, []string{"missing.go"}); err == nil {
		t.Error("missing file did not error")
	}
}
