package spec

import "testing"

func TestParseCanonicalQueries(t *testing.T) {
	cases := []struct {
		in   string
		want Query
	}{
		{"Rmin=? [ G !hazard & F goal ]", Query{Kind: RMin, Avoid: "hazard", Reach: "goal"}},
		{"Pmax=? [ G !hazard & F goal ]", Query{Kind: PMax, Avoid: "hazard", Reach: "goal"}},
		{"Pmax=? [ F goal ]", Query{Kind: PMax, Reach: "goal"}},
		{"Rmin=?[G !hazard & F goal]", Query{Kind: RMin, Avoid: "hazard", Reach: "goal"}},
		{"Pmax=? [ [] !hazard & <> goal ]", Query{Kind: PMax, Avoid: "hazard", Reach: "goal"}},
		{"Pmax=? [ F goal & G !hazard ]", Query{Kind: PMax, Avoid: "hazard", Reach: "goal"}},
		{"Rmin=? [ F done ]", Query{Kind: RMin, Reach: "done"}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Pmin=? [ F goal ]",               // unsupported operator
		"Rmax=? [ F goal ]",               // unsupported operator
		"Qmax=? [ F goal ]",               // unknown operator
		"Pmax=? [ G !hazard ]",            // no reachability unit
		"Pmax=? [ F goal & F other ]",     // two reachability units
		"Pmax=? [ G !a & G !b & F goal ]", // two safety units
		"Pmax=? [ G hazard & F goal ]",    // safety without negation
		"Pmax=? [ F goal ] extra",         // trailing input
		"Pmax=? F goal",                   // missing brackets
		"Pmax [ F goal ]",                 // missing =?
		"Pmax=? [ F goal",                 // unclosed bracket
		"Pmax=? [ F ]",                    // missing label
		"Pmax=? [ @ ]",                    // bad character
		"Pmax=? [ goal ]",                 // bare label without operator
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", in)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	qs := []Query{
		{Kind: RMin, Avoid: "hazard", Reach: "goal"},
		{Kind: PMax, Avoid: "hazard", Reach: "goal"},
		{Kind: PMax, Reach: "goal"},
	}
	for _, q := range qs {
		again, err := Parse(q.String())
		if err != nil {
			t.Errorf("round trip %q: %v", q.String(), err)
			continue
		}
		if again != q {
			t.Errorf("round trip %q = %+v, want %+v", q.String(), again, q)
		}
	}
}

func TestRoutingQuery(t *testing.T) {
	q := RoutingQuery(RMin)
	if q.String() != "Rmin=? [ G !hazard & F goal ]" {
		t.Errorf("RoutingQuery = %q", q.String())
	}
	q = RoutingQuery(PMax)
	if q.Avoid != "hazard" || q.Reach != "goal" || q.Kind != PMax {
		t.Errorf("RoutingQuery(PMax) = %+v", q)
	}
}

func TestKindString(t *testing.T) {
	if PMax.String() != "Pmax" || RMin.String() != "Rmin" {
		t.Error("kind names wrong")
	}
}
