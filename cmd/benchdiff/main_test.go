package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runDiff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestWithinToleranceExitsZero: runs inside the ±25% band pass; 10–28%
// swings report as warnings (or improvements) without failing.
func TestWithinToleranceExitsZero(t *testing.T) {
	code, out, errw := runDiff(t,
		"-base", "testdata/base.json", "-new", "testdata/ok.json")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errw)
	}
	if !strings.Contains(out, "WARN") {
		t.Errorf("a +28%% run should warn; output:\n%s", out)
	}
	if !strings.Contains(out, "improved") {
		t.Errorf("a -22%% run should report improved; output:\n%s", out)
	}
	if !strings.Contains(out, "0 failures") {
		t.Errorf("want 0 failures; output:\n%s", out)
	}
}

// TestTwoXRegressionExitsNonzero is the acceptance fixture: a synthetic 2x+
// regression must make benchdiff exit nonzero.
func TestTwoXRegressionExitsNonzero(t *testing.T) {
	code, out, errw := runDiff(t,
		"-base", "testdata/base.json", "-new", "testdata/regress2x.json")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("regressed benchmark not marked FAIL; output:\n%s", out)
	}
	if !strings.Contains(errw, "regressed beyond") {
		t.Errorf("stderr missing regression summary: %s", errw)
	}
}

// TestAllocRegressionFails: allocs_per_op regressing past the fail multiple
// (with real absolute growth) fails even when ns/op is flat, while a small
// absolute bump on a tiny baseline (20 → 26 allocs, 1.3x) stays inside the
// alloc slack and is not flagged.
func TestAllocRegressionFails(t *testing.T) {
	code, out, errw := runDiff(t,
		"-base", "testdata/base.json", "-new", "testdata/allocregress.json")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s\nstdout:\n%s", code, errw, out)
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "10x10") && !strings.Contains(line, "FAIL"):
			t.Errorf("2.6x alloc regression not marked FAIL: %s", line)
		case strings.Contains(line, "gauss-seidel") &&
			(strings.Contains(line, "FAIL") || strings.Contains(line, "WARN")):
			t.Errorf("+6 allocs on a 20-alloc baseline should stay inside the slack: %s", line)
		}
	}
}

// TestFailThresholdAdjustable: the same fixture passes with a loose -fail.
func TestFailThresholdAdjustable(t *testing.T) {
	code, _, _ := runDiff(t,
		"-base", "testdata/base.json", "-new", "testdata/regress2x.json", "-fail", "3.0")
	if code != 0 {
		t.Fatalf("exit %d with -fail 3.0, want 0 (2.17x < 3x)", code)
	}
}

// TestIdenticalReportsClean: comparing a report against itself neither
// warns nor fails.
func TestIdenticalReportsClean(t *testing.T) {
	code, out, _ := runDiff(t,
		"-base", "testdata/base.json", "-new", "testdata/base.json")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(out, "0 warnings") || !strings.Contains(out, "0 failures") {
		t.Errorf("self-comparison not clean:\n%s", out)
	}
}

// TestOutArtifact: -out writes the same comparison to a file for CI upload.
func TestOutArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diff.txt")
	code, out, _ := runDiff(t,
		"-base", "testdata/base.json", "-new", "testdata/ok.json", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out {
		t.Error("artifact file differs from stdout")
	}
}

// TestUsageErrors: missing -new, unreadable files, and empty reports exit 2.
func TestUsageErrors(t *testing.T) {
	if code, _, _ := runDiff(t, "-base", "testdata/base.json"); code != 2 {
		t.Errorf("missing -new: exit %d, want 2", code)
	}
	if code, _, _ := runDiff(t, "-base", "testdata/base.json", "-new", "testdata/nope.json"); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runDiff(t, "-base", "testdata/base.json", "-new", empty); code != 2 {
		t.Errorf("empty report: exit %d, want 2", code)
	}
}

// TestMissingAndNewBenchmarks: disappeared baselines warn; new benchmarks
// report without a ratio.
func TestMissingAndNewBenchmarks(t *testing.T) {
	next := filepath.Join(t.TempDir(), "new.json")
	content := `{"benchmarks":[
		{"name":"table_v_synthesis/10x10","iterations":1,"ns_per_op":300000,"bytes_per_op":1,"allocs_per_op":1},
		{"name":"brand_new/bench","iterations":1,"ns_per_op":100,"bytes_per_op":1,"allocs_per_op":1}]}`
	if err := os.WriteFile(next, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runDiff(t, "-base", "testdata/base.json", "-new", next)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (missing baselines warn, not fail)", code)
	}
	if !strings.Contains(out, "no baseline") {
		t.Errorf("new benchmark not reported; output:\n%s", out)
	}
	if !strings.Contains(out, "missing from new report") {
		t.Errorf("disappeared benchmark not reported; output:\n%s", out)
	}
}

// TestSpreadColumn: a row's ns_spread shows as its half-range around the
// median, a row without one (older reports) shows "-", and the spread does
// not move the bands: a +28% row with a ±30% spread still warns.
func TestSpreadColumn(t *testing.T) {
	next := filepath.Join(t.TempDir(), "new.json")
	content := `{"benchmarks":[
		{"name":"table_v_synthesis/10x10","iterations":1,"ns_per_op":320000,"ns_spread":192000,"bytes_per_op":1,"allocs_per_op":20},
		{"name":"solver/gauss-seidel","iterations":1,"ns_per_op":2000000,"bytes_per_op":1,"allocs_per_op":20}]}`
	if err := os.WriteFile(next, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base.json")
	content = `{"benchmarks":[
		{"name":"table_v_synthesis/10x10","iterations":1,"ns_per_op":250000,"ns_spread":1000,"bytes_per_op":1,"allocs_per_op":20},
		{"name":"solver/gauss-seidel","iterations":1,"ns_per_op":2000000,"bytes_per_op":1,"allocs_per_op":20}]}`
	if err := os.WriteFile(base, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runDiff(t, "-base", base, "-new", next)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(out, "spread") {
		t.Errorf("no spread column; output:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "table_v_synthesis/10x10"):
			if !strings.Contains(line, "±30.0%") || !strings.Contains(line, "WARN") {
				t.Errorf("want a ±30.0%% spread and a warning: %s", line)
			}
		case strings.HasPrefix(line, "solver/gauss-seidel"):
			if fields := strings.Fields(line); len(fields) < 4 || fields[3] != "-" {
				t.Errorf("want no spread on a row without one: %s", line)
			}
		}
	}
}
