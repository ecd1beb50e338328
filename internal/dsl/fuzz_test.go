package dsl

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the assay parser: it must never panic,
// and anything it accepts must be a valid, planner-ready graph.
func FuzzParse(f *testing.F) {
	f.Add(dilution)
	f.Add("assay x\na = dis 16\nout a\n")
	f.Add("a = dis 16\nl, r = spt a\nout l\nout r")
	f.Add("x = mix y z")
	f.Add("= dis 16")
	f.Add("assay\n")
	f.Add(strings.Repeat("a = dis 16\n", 4))
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v\ninput:\n%s", verr, src)
		}
	})
}

// FuzzParseStability: parsing is a pure function — the same source must
// yield the same graph (or the same error disposition) on every call. A
// divergence means the parser leaked state between runs, which would break
// the byte-identical-trace determinism guarantee upstream.
func FuzzParseStability(f *testing.F) {
	f.Add(dilution)
	f.Add("assay x\na = dis 16\nout a\n")
	f.Add("a = dis 16\nl, r = spt a\nout l\nout r")
	f.Add("a = dis 9\nb = dis 9\nm = mix a b\nout m\n")
	f.Fuzz(func(t *testing.T, src string) {
		g1, err1 := Parse(strings.NewReader(src))
		g2, err2 := Parse(strings.NewReader(src))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("parse disposition differs between runs: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(g1, g2) {
			t.Fatalf("same source parsed to different graphs:\n%+v\nvs\n%+v", g1, g2)
		}
	})
}
