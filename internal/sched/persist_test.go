package sched

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"meda/internal/assay"
	"meda/internal/route"
	"meda/internal/synth"
)

func TestLibrarySaveLoadRoundTrip(t *testing.T) {
	lib := NewLibrary()
	healthy := func(x, y int) float64 { return 1 }
	jobs := []route.RJ{
		job(),
		{Start: rect(1, 1, 4, 4), Goal: rect(10, 1, 13, 4), Hazard: rect(1, 1, 16, 7)},
	}
	for _, rj := range jobs {
		res, err := synth.Synthesize(rj, healthy, synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		lib.Store(rj, res.Policy, res.Value)
	}

	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		t.Fatal(err)
	}

	loaded := NewLibrary()
	if err := loaded.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, rj := range jobs {
		p1, v1, ok1 := lib.Lookup(rj)
		p2, v2, ok2 := loaded.Lookup(rj)
		if !ok1 || !ok2 {
			t.Fatalf("lookup failed: %v %v", ok1, ok2)
		}
		if diff := p2.Diff(p1); v1 != v2 || diff != "" {
			t.Fatalf("entry mismatch: value %v vs %v; %s", v1, v2, diff)
		}
	}
}

func TestLibrarySaveDeterministic(t *testing.T) {
	build := func() string {
		lib := NewLibrary()
		healthy := func(x, y int) float64 { return 1 }
		for _, rj := range []route.RJ{
			job(),
			{Start: rect(2, 2, 4, 4), Goal: rect(8, 8, 10, 10), Hazard: rect(1, 1, 12, 12)},
		} {
			res, err := synth.Synthesize(rj, healthy, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			lib.Store(rj, res.Policy, res.Value)
		}
		var buf bytes.Buffer
		if err := lib.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if build() != build() {
		t.Error("library serialization not deterministic")
	}
}

func TestLibraryLoadRejectsGarbage(t *testing.T) {
	lib := NewLibrary()
	if err := lib.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if err := lib.Load(strings.NewReader(`{"version":99,"entries":[]}`)); err == nil {
		t.Error("unknown version accepted")
	}
	bad := `{"version":1,"entries":[{"start":[1,1,2,2],"goal":[3,3,4,4],"hazard":[1,1,6,6],
		"value":1,"policy":[{"d":[1,1,2,2],"a":250}]}]}`
	if err := lib.Load(strings.NewReader(bad)); err == nil {
		t.Error("invalid action id accepted")
	}
}

func TestPresynthesize(t *testing.T) {
	lib := NewLibrary()
	a := assay.MasterMix.Build(assay.Layout{W: 60, H: 30}, 16)
	plan, err := route.Compile(a, 60, 30)
	if err != nil {
		t.Fatal(err)
	}
	added, err := lib.Presynthesize(plan, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("nothing pre-synthesized")
	}
	_, _, size := lib.Stats()
	if size != added {
		t.Errorf("size %d != added %d", size, added)
	}
	// Every job of the plan now hits the library.
	for i := range plan.MOs {
		for _, rj := range plan.MOs[i].Jobs {
			rj = synth.NormalizeDispense(rj, 60, 30)
			if _, _, ok := lib.Lookup(rj); !ok {
				t.Errorf("job %s missing after pre-synthesis", rj.Name())
			}
		}
	}
	// Idempotent: a second pass adds nothing.
	again, err := lib.Presynthesize(plan, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Errorf("second pass added %d entries", again)
	}
}

// TestLibrarySaveBytesPinned pins the bytes Save writes for each of the six
// evaluation assays' presynthesized libraries (60×30 chip, area 16), as
// SHA-256 digests recorded when policies were still hash maps, so the v1
// file schema and its entry order provably stay unchanged. A saved file
// also loads and saves back to the same bytes.
func TestLibrarySaveBytesPinned(t *testing.T) {
	pinned := map[assay.Benchmark]string{
		assay.MasterMix:      "21953e1507442b5540086da7d4a4e720d4600c5f325a3d2e51ee7fdffd7d63c9",
		assay.CEP:            "d902f9982c14334579e41be24b3be77393391b5fcc610287259ab2f00518e8a5",
		assay.SerialDilution: "fe59f88feadc14bdfbdec99a5d4a21e248555f83bea9996584e16aa82231e780",
		assay.NuIP:           "f466accc4eab314b0869a5f32bb49b2cec9e4bd0e1736dfcafead3a586be1275",
		assay.CovidRAT:       "846141af24c4793e6f902dbd9d46312f403acc00bc9a35f8ca1506b8158746bc",
		assay.CovidPCR:       "051d5e399ef1d69782c15f4ab2ffc413f0f73c8aeb2dcda23020d93a4d10766d",
	}
	if len(assay.EvaluationBenchmarks) != len(pinned) {
		t.Fatalf("%d evaluation assays, %d pinned", len(assay.EvaluationBenchmarks), len(pinned))
	}
	for _, b := range assay.EvaluationBenchmarks {
		plan, err := route.Compile(b.Build(assay.Layout{W: 60, H: 30}, 16), 60, 30)
		if err != nil {
			t.Fatal(err)
		}
		lib := NewLibrary()
		if _, err := lib.Presynthesize(plan, synth.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := lib.Save(&saved); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(saved.Bytes())); got != pinned[b] {
			t.Errorf("%v: Save wrote %d bytes with SHA-256 %s, want %s", b, saved.Len(), got, pinned[b])
		}
		loaded := NewLibrary()
		if err := loaded.Load(bytes.NewReader(saved.Bytes())); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), saved.Bytes()) {
			t.Errorf("%v: a loaded library saves %d bytes, the original %d", b, again.Len(), saved.Len())
		}
	}
}
