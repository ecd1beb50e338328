package lint_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"

	"meda/internal/lint"
)

// TestWriteSARIF: the emitter produces a valid SARIF 2.1.0 log with one
// rule per analyzer (plus the directive pseudo-rule) and module-relative
// forward-slash paths.
func TestWriteSARIF(t *testing.T) {
	findings := []lint.Finding{
		{
			Analyzer: "goroutineleak",
			Pos:      token.Position{Filename: "/repo/internal/sched/cache.go", Line: 12, Column: 3},
			Message:  "goroutine sends on ch with no receiver",
		},
		{
			Analyzer: "hotalloc",
			Pos:      token.Position{Filename: "/elsewhere/x.go", Line: 1, Column: 1},
			Message:  "outside the module",
		},
	}
	var buf bytes.Buffer
	if err := lint.WriteSARIF(&buf, findings, lint.Analyzers(), "/repo"); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("emitted SARIF is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs; want 2.1.0 and 1 run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "medalint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if want := len(lint.Analyzers()) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("got %d rules, want %d (suite + directive)", len(run.Tool.Driver.Rules), want)
	}
	rules := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, a := range lint.Analyzers() {
		if !rules[a.Name] {
			t.Errorf("analyzer %q missing from SARIF rules", a.Name)
		}
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	in := run.Results[0]
	if in.RuleID != "goroutineleak" || in.Level != "warning" {
		t.Errorf("result 0 = %s/%s, want goroutineleak/warning", in.RuleID, in.Level)
	}
	if uri := in.Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "internal/sched/cache.go" {
		t.Errorf("in-module URI = %q, want module-relative internal/sched/cache.go", uri)
	}
	if line := in.Locations[0].PhysicalLocation.Region.StartLine; line != 12 {
		t.Errorf("startLine = %d, want 12", line)
	}
	if uri := run.Results[1].Locations[0].PhysicalLocation.ArtifactLocation.URI; uri != "/elsewhere/x.go" {
		t.Errorf("out-of-module URI = %q, want the absolute path kept", uri)
	}
}
