// Package dsl parses a small textual bioassay description language into the
// planner's location-free sequencing graphs, so protocols can be written,
// versioned and shared without writing Go. The format is line-oriented:
//
//	# serial dilution, two stages
//	assay my-dilution
//
//	sample  = dis 16
//	buffer0 = dis 16
//	waste0, carried0 = dlt sample buffer0
//	dsc waste0
//	buffer1 = dis 16
//	waste1, carried1 = dlt carried0 buffer1
//	dsc waste1
//	result  = mag carried1 hold=20
//	out result
//
// Each droplet-producing operation binds one name per output droplet
// (`a = mix x y`, `l, r = spt p`); `out` and `dsc` consume a droplet without
// producing one. `dis` takes the droplet area in cells; `mag` takes an
// optional `hold=<cycles>` detention time. `#` starts a comment. Every
// droplet must be consumed exactly once, and names must be defined before
// use — which also guarantees the graph is in topological order.
package dsl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"meda/internal/assay"
	"meda/internal/plan"
)

// Parse reads an assay description and returns the location-free graph
// (feed it to plan.NewPlacer to obtain a placed, runnable assay).
func Parse(r io.Reader) (plan.Graph, error) {
	var g plan.Graph
	names := map[string]int{} // droplet name → producer op index
	consumed := map[string]bool{}

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := parseLine(&g, names, consumed, line); err != nil {
			return plan.Graph{}, fmt.Errorf("dsl: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return plan.Graph{}, fmt.Errorf("dsl: %w", err)
	}
	for name := range names {
		if !consumed[name] {
			return plan.Graph{}, fmt.Errorf("dsl: droplet %q is never consumed (out/dsc it, or feed it to an operation)", name)
		}
	}
	if len(g.Ops) == 0 {
		return plan.Graph{}, fmt.Errorf("dsl: empty assay")
	}
	if err := g.Validate(); err != nil {
		return plan.Graph{}, err
	}
	return g, nil
}

var opByName = map[string]assay.Op{
	"dis": assay.Dis,
	"out": assay.Out,
	"dsc": assay.Dsc,
	"mix": assay.Mix,
	"spt": assay.Spt,
	"dlt": assay.Dlt,
	"mag": assay.Mag,
}

func parseLine(g *plan.Graph, names map[string]int, consumed map[string]bool, line string) error {
	// Header: "assay <name>".
	if rest, ok := strings.CutPrefix(line, "assay "); ok {
		if g.Name != "" {
			return fmt.Errorf("duplicate assay header")
		}
		g.Name = strings.TrimSpace(rest)
		if g.Name == "" {
			return fmt.Errorf("assay header needs a name")
		}
		return nil
	}

	// Either "names = op args" or "op args" (for out/dsc).
	var outNames []string
	rhs := line
	if i := strings.IndexByte(line, '='); i >= 0 {
		for _, n := range strings.Split(line[:i], ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				return fmt.Errorf("empty output name")
			}
			if !validName(n) {
				return fmt.Errorf("invalid droplet name %q", n)
			}
			if _, dup := names[n]; dup {
				return fmt.Errorf("droplet %q already defined", n)
			}
			outNames = append(outNames, n)
		}
		rhs = strings.TrimSpace(line[i+1:])
	}
	fields := strings.Fields(rhs)
	if len(fields) == 0 {
		return fmt.Errorf("missing operation")
	}
	op, ok := opByName[fields[0]]
	if !ok {
		return fmt.Errorf("unknown operation %q (want dis/out/dsc/mix/spt/dlt/mag)", fields[0])
	}
	args := fields[1:]

	node := plan.Op{Type: op}
	in, out := op.Arity()
	if len(outNames) != out {
		return fmt.Errorf("%s produces %d droplet(s), %d name(s) given", fields[0], out, len(outNames))
	}

	// Consume key=value options from the tail.
	for len(args) > 0 {
		kv := args[len(args)-1]
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			break
		}
		key, val := kv[:eq], kv[eq+1:]
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("option %s: %v", kv, err)
		}
		switch key {
		case "hold":
			if op != assay.Mag {
				return fmt.Errorf("hold= applies to mag only")
			}
			node.Hold = n
		case "area":
			if op != assay.Dis {
				return fmt.Errorf("area= applies to dis only")
			}
			node.Area = n
		default:
			return fmt.Errorf("unknown option %q", key)
		}
		args = args[:len(args)-1]
	}

	// dis accepts its area as a bare argument too: "dis 16".
	if op == assay.Dis && len(args) == 1 {
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("dis area: %v", err)
		}
		node.Area = n
		args = nil
	}
	if op == assay.Dis && node.Area < 1 {
		return fmt.Errorf("dis needs a droplet area (e.g. \"x = dis 16\")")
	}

	// Remaining arguments are input droplet names.
	if len(args) != in {
		return fmt.Errorf("%s consumes %d droplet(s), %d given", fields[0], in, len(args))
	}
	for _, a := range args {
		producer, ok := names[a]
		if !ok {
			return fmt.Errorf("unknown droplet %q", a)
		}
		if consumed[a] {
			return fmt.Errorf("droplet %q already consumed", a)
		}
		consumed[a] = true
		node.Pre = append(node.Pre, producer)
	}

	id := len(g.Ops)
	g.Ops = append(g.Ops, node)
	for _, n := range outNames {
		names[n] = id
	}
	if op == assay.Mag && node.Hold == 0 {
		g.Ops[id].Hold = 10 // a sensing hold is never instantaneous
	}
	return nil
}

func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '-' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	// Must not collide with an operation keyword or parse as a number.
	if _, isOp := opByName[s]; isOp {
		return false
	}
	if _, err := strconv.Atoi(s); err == nil {
		return false
	}
	return true
}
