// Package spec implements the property language used by the synthesis
// queries of Sec. VI-C, a fragment of PRISM's probabilistic temporal logic
// sufficient for droplet routing:
//
//	Pmax=? [ G !hazard & F goal ]   — maximize the probability of
//	                                  satisfying □(¬hazard) ∧ ◇goal
//	Rmin=? [ G !hazard & F goal ]   — minimize the expected number of
//	                                  cycles while satisfying it
//
// Formulas are conjunctions of at most one safety unit G !label (also
// written [] !label) and exactly one reachability unit F label (also <>
// label). Labels are the paper's state labels: propositional formulas over
// the droplet position evaluated by the model layer (goal and hazard in
// Alg. 2); this package treats them as opaque names.
package spec

import (
	"fmt"
	"strings"
)

// Kind distinguishes the two query types of Sec. VI-C.
type Kind int

const (
	// PMax is the probabilistic query Pmax=? (maximize satisfaction
	// probability).
	PMax Kind = iota
	// RMin is the reward-based query Rmin=? (minimize expected
	// accumulated reward, i.e. cycles).
	RMin
)

// String returns the PRISM operator name.
func (k Kind) String() string {
	if k == RMin {
		return "Rmin"
	}
	return "Pmax"
}

// Query is a parsed synthesis query.
type Query struct {
	Kind Kind
	// Avoid is the label of states that must never be entered (the G !x
	// unit); empty when the formula has no safety conjunct.
	Avoid string
	// Reach is the label of states to eventually reach (the F x unit).
	Reach string
}

// String renders the query in PRISM syntax.
func (q Query) String() string {
	var b strings.Builder
	b.WriteString(q.Kind.String())
	b.WriteString("=? [ ")
	if q.Avoid != "" {
		fmt.Fprintf(&b, "G !%s & ", q.Avoid)
	}
	fmt.Fprintf(&b, "F %s ]", q.Reach)
	return b.String()
}

// RoutingQuery returns the paper's routing property for the given kind:
// kind=? [ G !hazard & F goal ].
func RoutingQuery(kind Kind) Query {
	return Query{Kind: kind, Avoid: "hazard", Reach: "goal"}
}

// Parse parses a query string such as
//
//	"Rmin=? [ G !hazard & F goal ]"
//	"Pmax=? [ [] !hazard & <> goal ]"
//	"Pmax=? [ F goal ]"
//
// G/[] and F/<> are interchangeable; the conjuncts may appear in either
// order; label names are alphanumeric identifiers.
func Parse(s string) (Query, error) {
	toks, err := tokenize(s)
	if err != nil {
		return Query{}, err
	}
	p := parser{toks: toks}
	return p.parseQuery()
}

type token struct {
	kind string // "ident", "op"
	text string
}

func tokenize(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '[' && i+1 < len(s) && s[i+1] == ']':
			toks = append(toks, token{"op", "G"})
			i += 2
		case c == '<' && i+1 < len(s) && s[i+1] == '>':
			toks = append(toks, token{"op", "F"})
			i += 2
		case c == '=' && i+1 < len(s) && s[i+1] == '?':
			toks = append(toks, token{"op", "=?"})
			i += 2
		case c == '[' || c == ']' || c == '!' || c == '&':
			toks = append(toks, token{"op", string(c)})
			i++
		case isIdentChar(c):
			j := i
			for j < len(s) && isIdentChar(s[j]) {
				j++
			}
			word := s[i:j]
			switch word {
			case "G", "F":
				toks = append(toks, token{"op", word})
			default:
				toks = append(toks, token{"ident", word})
			}
			i = j
		default:
			return nil, fmt.Errorf("spec: unexpected character %q at offset %d", c, i)
		}
	}
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() (token, bool) {
	if p.pos >= len(p.toks) {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) next() (token, bool) {
	t, ok := p.peek()
	if ok {
		p.pos++
	}
	return t, ok
}

func (p *parser) expectOp(text string) error {
	t, ok := p.next()
	if !ok || t.kind != "op" || t.text != text {
		return fmt.Errorf("spec: expected %q, got %q", text, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t, ok := p.next()
	if !ok || t.kind != "ident" {
		return "", fmt.Errorf("spec: expected label name, got %q", t.text)
	}
	return t.text, nil
}

func (p *parser) parseQuery() (Query, error) {
	head, err := p.expectIdent()
	if err != nil {
		return Query{}, err
	}
	var q Query
	switch head {
	case "Pmax":
		q.Kind = PMax
	case "Rmin":
		q.Kind = RMin
	case "Pmin", "Rmax":
		return Query{}, fmt.Errorf("spec: %s queries are not used by the routing framework", head)
	default:
		return Query{}, fmt.Errorf("spec: unknown query operator %q", head)
	}
	if err := p.expectOp("=?"); err != nil {
		return Query{}, err
	}
	if err := p.expectOp("["); err != nil {
		return Query{}, err
	}
	if err := p.parseFormula(&q); err != nil {
		return Query{}, err
	}
	if err := p.expectOp("]"); err != nil {
		return Query{}, err
	}
	if t, ok := p.peek(); ok {
		return Query{}, fmt.Errorf("spec: trailing input %q", t.text)
	}
	if q.Reach == "" {
		return Query{}, fmt.Errorf("spec: formula must contain a reachability unit F <label>")
	}
	return q, nil
}

func (p *parser) parseFormula(q *Query) error {
	for {
		if err := p.parseUnit(q); err != nil {
			return err
		}
		t, ok := p.peek()
		if !ok || t.kind != "op" || t.text != "&" {
			return nil
		}
		p.pos++ // consume &
	}
}

func (p *parser) parseUnit(q *Query) error {
	t, ok := p.next()
	if !ok || t.kind != "op" {
		return fmt.Errorf("spec: expected temporal operator, got %q", t.text)
	}
	switch t.text {
	case "G":
		if err := p.expectOp("!"); err != nil {
			return fmt.Errorf("spec: the safety unit must have the form G !<label>: %w", err)
		}
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if q.Avoid != "" {
			return fmt.Errorf("spec: multiple safety units")
		}
		q.Avoid = name
		return nil
	case "F":
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		if q.Reach != "" {
			return fmt.Errorf("spec: multiple reachability units")
		}
		q.Reach = name
		return nil
	default:
		return fmt.Errorf("spec: unexpected operator %q", t.text)
	}
}
