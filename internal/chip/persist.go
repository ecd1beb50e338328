// Chip state persistence: a biochip's wear is physical and survives power
// cycles, so the simulator's chips can be saved and restored too — run a
// panel of assays today, reload the same worn chip tomorrow (or hand it to
// cmd/medad to serve over the network).
package chip

import (
	"encoding/json"
	"fmt"
	"io"

	"meda/internal/degrade"
)

// stateFile is the JSON schema of a serialized chip.
type stateFile struct {
	Version    int         `json:"version"`
	W          int         `json:"w"`
	H          int         `json:"h"`
	HealthBits int         `json:"bits"`
	Cells      []cellState `json:"cells"` // row-major, (y−1)*W + (x−1)
}

type cellState struct {
	Tau    float64 `json:"tau"`
	C      float64 `json:"c"`
	N      int     `json:"n"`
	FailAt int     `json:"fail,omitempty"`
}

// SaveState serializes the full chip state: dimensions, sensing resolution,
// and every microelectrode's degradation constants, actuation counter and
// hard-fault threshold.
func (c *Chip) SaveState(w io.Writer) error {
	f := stateFile{Version: 1, W: c.w, H: c.h, HealthBits: c.bits}
	f.Cells = make([]cellState, len(c.mcs))
	for i := range c.mcs {
		mc := &c.mcs[i]
		f.Cells[i] = cellState{Tau: mc.Params.Tau, C: mc.Params.C, N: mc.N, FailAt: mc.FailAt}
	}
	return json.NewEncoder(w).Encode(f)
}

// LoadState reconstructs a chip saved with SaveState.
func LoadState(r io.Reader) (*Chip, error) {
	var f stateFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("chip: loading state: %w", err)
	}
	if f.Version != 1 {
		return nil, fmt.Errorf("chip: unsupported state version %d", f.Version)
	}
	if f.W < 1 || f.H < 1 || f.HealthBits < 1 || f.HealthBits > 8 {
		return nil, fmt.Errorf("chip: invalid saved geometry %d×%d/%d bits", f.W, f.H, f.HealthBits)
	}
	if len(f.Cells) != f.W*f.H {
		return nil, fmt.Errorf("chip: %d cells for a %d×%d array", len(f.Cells), f.W, f.H)
	}
	c := newChip(f.W, f.H, f.HealthBits)
	for i, cs := range f.Cells {
		p := degrade.Params{Tau: cs.Tau, C: cs.C}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("chip: cell %d: %w", i, err)
		}
		if cs.N < 0 || cs.FailAt < 0 {
			return nil, fmt.Errorf("chip: cell %d has negative counters", i)
		}
		c.mcs[i] = degrade.MC{Params: p, N: cs.N, FailAt: cs.FailAt}
	}
	c.latchAll()
	return c, nil
}
