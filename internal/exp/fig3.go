package exp

import (
	"fmt"
	"io"

	"meda/internal/assay"
	"meda/internal/chip"
	"meda/internal/degrade"
	"meda/internal/geom"
	"meda/internal/randx"
	"meda/internal/route"
	"meda/internal/sched"
	"meda/internal/sim"
	"meda/internal/stats"
)

// Fig3Config configures the actuation-correlation study of Sec. III-C.
type Fig3Config struct {
	Seed uint64
	// W, H are the biochip dimensions (the paper uses 60×30).
	W, H int
	// Sides are the droplet side lengths studied (3..6).
	Sides []int
	// Distances are the Manhattan distances studied (1..5).
	Distances []int
	// Assays are the protocols executed (ChIP, In-Vitro, Gene-Expression).
	Assays []assay.Benchmark
	// MaxPairs caps the number of MC pairs sampled per distance.
	MaxPairs int
}

// DefaultFig3Config mirrors the paper's setup.
func DefaultFig3Config(seed uint64) Fig3Config {
	return Fig3Config{
		Seed: seed,
		W:    60, H: 30,
		Sides:     []int{3, 4, 5, 6},
		Distances: []int{1, 2, 3, 4, 5},
		Assays:    assay.CorrelationBenchmarks,
		MaxPairs:  4000,
	}
}

// Fig3Point is one data point of Fig. 3: the mean correlation coefficient of
// actuation vectors between MC pairs at a Manhattan distance, for one assay
// and droplet size.
type Fig3Point struct {
	Assay       string
	Side        int
	Distance    int
	Correlation float64
	Pairs       int
}

// Fig3 simulates each bioassay at each droplet size, records the Boolean
// actuation vector A_ij of every microelectrode, and computes the mean
// Pearson correlation between pairs of MCs grouped by Manhattan distance.
func Fig3(cfg Fig3Config) ([]Fig3Point, error) {
	src := randx.New(cfg.Seed)
	var out []Fig3Point
	for _, bench := range cfg.Assays {
		for _, side := range cfg.Sides {
			vectors, err := recordActuations(cfg, bench, side, src.Split(bench.String()).SplitN("side", side))
			if err != nil {
				return nil, fmt.Errorf("exp: fig3 %v side %d: %w", bench, side, err)
			}
			for _, d := range cfg.Distances {
				corr, pairs := meanCorrelationAtDistance(vectors, cfg.W, cfg.H, d, cfg.MaxPairs,
					src.Split("pairs").SplitN("d", d))
				out = append(out, Fig3Point{
					Assay: bench.String(), Side: side, Distance: d,
					Correlation: corr, Pairs: pairs,
				})
			}
		}
	}
	return out, nil
}

// recordActuations runs one execution on a robust chip and returns the
// per-cell actuation bit vectors (indexed (y−1)*W + (x−1)).
func recordActuations(cfg Fig3Config, bench assay.Benchmark, side int, src *randx.Source) ([][]bool, error) {
	chipCfg := chip.Config{
		W: cfg.W, H: cfg.H, HealthBits: 2,
		// Robust microelectrodes: the correlation study observes actuation
		// patterns, not failures.
		Normal: degrade.ParamRange{Tau1: 0.99, Tau2: 0.999, C1: 5000, C2: 10000},
	}
	c, err := chip.New(chipCfg, src.Split("chip"))
	if err != nil {
		return nil, err
	}
	a := bench.Build(assay.Layout{W: cfg.W, H: cfg.H}, side*side)
	plan, err := route.Compile(a, cfg.W, cfg.H)
	if err != nil {
		return nil, err
	}
	runner := sim.NewRunner(baseSimConfig(), c, sched.NewBaseline(), src.Split("sim"))
	vectors := make([][]bool, cfg.W*cfg.H)
	runner.Hook = func(k int, patterns []geom.Rect) {
		row := make([]bool, cfg.W*cfg.H)
		for _, p := range patterns {
			clipped, ok := p.Intersect(geom.Rect{XA: 1, YA: 1, XB: cfg.W, YB: cfg.H})
			if !ok {
				continue
			}
			for y := clipped.YA; y <= clipped.YB; y++ {
				for x := clipped.XA; x <= clipped.XB; x++ {
					row[(y-1)*cfg.W+(x-1)] = true
				}
			}
		}
		for i, b := range row {
			vectors[i] = append(vectors[i], b)
		}
	}
	exec, err := runner.Execute(plan)
	if err != nil {
		return nil, err
	}
	if !exec.Success {
		return nil, fmt.Errorf("execution aborted after %d cycles", exec.Cycles)
	}
	return vectors, nil
}

// meanCorrelationAtDistance averages Pearson correlations of actuation
// vectors over sampled MC pairs at exactly Manhattan distance d, skipping
// never-actuated (constant) cells.
func meanCorrelationAtDistance(vectors [][]bool, w, h, d, maxPairs int, src *randx.Source) (float64, int) {
	// Index cells that were actuated at least once.
	active := make([]int, 0, len(vectors))
	for i, v := range vectors {
		for _, b := range v {
			if b {
				active = append(active, i)
				break
			}
		}
	}
	if len(active) == 0 {
		return 0, 0
	}
	sum, count := 0.0, 0
	order := src.Perm(len(active))
	for _, ai := range order {
		if count >= maxPairs {
			break
		}
		i := active[ai]
		xi, yi := i%w+1, i/w+1
		// Enumerate partner cells at Manhattan distance d in the positive
		// half-plane (dx > 0, plus the single (0, +d) offset) so each
		// unordered pair is visited once.
		for dx := 0; dx <= d; dx++ {
			dy := d - dx
			offsets := [][2]int{{dx, dy}, {dx, -dy}}
			if dy == 0 {
				offsets = offsets[:1]
			}
			for _, off := range offsets {
				if off[0] == 0 && off[1] < 0 {
					continue
				}
				if off[0] == 0 && off[1] == 0 {
					continue
				}
				xj, yj := xi+off[0], yi+off[1]
				if xj < 1 || xj > w || yj < 1 || yj > h {
					continue
				}
				j := (yj-1)*w + (xj - 1)
				r, err := stats.PearsonBool(vectors[i], vectors[j])
				if err != nil {
					continue // constant partner vector
				}
				sum += r
				count++
			}
		}
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), count
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// RenderFig3 writes the Fig. 3 reproduction grouped by assay and size.
func RenderFig3(w io.Writer, points []Fig3Point) {
	fprintf(w, "Fig. 3 — actuation correlation vs Manhattan distance\n")
	tw := newTable(w)
	fprintf(tw, "assay\tdroplet\td=1\td=2\td=3\td=4\td=5\n")
	type key struct {
		assay string
		side  int
	}
	rows := map[key][]float64{}
	var order []key
	for _, p := range points {
		k := key{p.Assay, p.Side}
		if _, ok := rows[k]; !ok {
			order = append(order, k)
			rows[k] = make([]float64, 6)
		}
		if p.Distance >= 1 && p.Distance <= 5 {
			rows[k][p.Distance] = p.Correlation
		}
	}
	for _, k := range order {
		fprintf(tw, "%s\t%d×%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			k.assay, k.side, k.side, rows[k][1], rows[k][2], rows[k][3], rows[k][4], rows[k][5])
	}
	tw.Flush()
}
