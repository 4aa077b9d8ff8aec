// Package cat implements an adaptive tree of counters in the style of
// Seyedzadeh, Jones & Melhem (ISCA 2018) and CAT-TWO (Kang, Lee & Ahn,
// IEEE Access 2020) — the third family the paper's related work surveys.
//
// A binary tree partitions the row-address space; each node counts the
// activations of its range. When a node's count crosses the split
// threshold the node splits, so counting adaptively refines toward the
// hottest rows; a single-row leaf crossing the trigger threshold gets a
// deterministic act_n. The tree resets every refresh window.
//
// The paper's critique is built in and measurable: the node budget is
// fixed (≈1 KB per bank), and "an attacker might fill all the levels of
// the tree to make it balanced and saturated before it reaches the levels
// where it would track the aggressor rows precisely." When a saturated
// wide leaf crosses the trigger threshold, the mitigation can only guess
// which row inside the range is hot (it refreshes the range's middle row
// best-effort), so a saturation attacker escapes — the package tests
// demonstrate exactly this.
package cat

import (
	"fmt"

	"tivapromi/internal/mitigation"
)

// Config parameterizes the tree.
type Config struct {
	// RowsPerBank is the covered address space (a power of two).
	RowsPerBank int
	// MaxNodes bounds the per-bank tree (the area budget). The paper
	// cites "no less than 1 KB per bank" for a safe tree; 341 nodes of
	// ~3 B match that.
	MaxNodes int
	// SplitThreshold is the node count at which a range splits.
	SplitThreshold uint32
	// TriggerThreshold is the count at which a leaf triggers act_n.
	TriggerThreshold uint32
}

// DefaultConfig derives safe thresholds from the flip threshold: a row
// can hide at most SplitThreshold activations per tree level on its way
// down, so levels*split + trigger stays below flipThreshold/4.
func DefaultConfig(rowsPerBank int, flipThreshold uint32) Config {
	levels := 0
	for v := rowsPerBank; v > 1; v >>= 1 {
		levels++
	}
	budget := flipThreshold / 4
	split := budget / (2 * uint32(levels))
	if split == 0 {
		split = 1
	}
	return Config{
		RowsPerBank:      rowsPerBank,
		MaxNodes:         341,
		SplitThreshold:   split,
		TriggerThreshold: budget - uint32(levels)*split,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	switch {
	case c.RowsPerBank < 2 || c.RowsPerBank&(c.RowsPerBank-1) != 0:
		return fmt.Errorf("cat: RowsPerBank = %d must be a power of two ≥ 2", c.RowsPerBank)
	case c.MaxNodes < 3:
		return fmt.Errorf("cat: MaxNodes = %d, need at least a root and two children", c.MaxNodes)
	case c.SplitThreshold == 0 || c.TriggerThreshold == 0:
		return fmt.Errorf("cat: zero threshold")
	}
	return nil
}

// node is one tree node; children are indices into the arena (-1 = leaf).
type node struct {
	lo, hi      int32 // row range [lo, hi)
	cnt         uint32
	left, right int32
}

// CAT is the mitigation state. Create instances with New.
type CAT struct {
	cfg   Config
	banks [][]node
	// Saturations counts trigger events on non-single leaves that could
	// not split — the imprecise refreshes of a saturated tree.
	Saturations uint64
}

// New builds a CAT instance for the given bank count.
func New(banks int, cfg Config) (*CAT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if banks <= 0 {
		return nil, fmt.Errorf("cat: banks = %d", banks)
	}
	c := &CAT{cfg: cfg, banks: make([][]node, banks)}
	c.Reset()
	return c, nil
}

// Factory adapts New to the registry signature.
func Factory(t mitigation.Target, _ uint64) mitigation.Mitigator {
	c, err := New(t.Banks, DefaultConfig(t.RowsPerBank, t.FlipThreshold))
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements mitigation.Mitigator.
func (c *CAT) Name() string { return "CAT" }

// OnActivate implements mitigation.Mitigator: walk to the leaf covering
// row, incrementing every node on the path; split hot leaves while the
// node budget lasts; trigger on hot leaves.
func (c *CAT) OnActivate(bank, row, _ int, cmds []mitigation.Command) []mitigation.Command {
	arena := c.banks[bank]
	idx := int32(0)
	for {
		n := &arena[idx]
		n.cnt++
		if n.left >= 0 { // interior: descend
			mid := (n.lo + n.hi) / 2
			if int32(row) < mid {
				idx = n.left
			} else {
				idx = n.right
			}
			continue
		}
		// Leaf.
		single := n.hi-n.lo == 1
		if !single && n.cnt >= c.cfg.SplitThreshold && len(arena)+2 <= c.cfg.MaxNodes {
			// Split: children start fresh; the parent keeps its count as
			// the range's history (the adaptive-tree accounting).
			mid := (n.lo + n.hi) / 2
			arena = append(arena,
				node{lo: n.lo, hi: mid, left: -1, right: -1},
				node{lo: mid, hi: n.hi, left: -1, right: -1},
			)
			n = &arena[idx] // re-take: append may have moved the arena
			n.left = int32(len(arena) - 2)
			n.right = int32(len(arena) - 1)
			c.banks[bank] = arena
			return cmds
		}
		if n.cnt >= c.cfg.TriggerThreshold {
			n.cnt = 0
			target := row
			if !single {
				// Saturated: the tree cannot localize the aggressor any
				// further. Best effort: refresh around the range middle.
				// An attacker elsewhere in the range escapes — the
				// documented tree weakness.
				c.Saturations++
				target = int(n.lo+n.hi) / 2
			}
			cmds = append(cmds, mitigation.Command{
				Kind: mitigation.ActN, Bank: bank, Row: target,
			})
		}
		c.banks[bank] = arena
		return cmds
	}
}

// OnRefreshInterval implements mitigation.Mitigator; the tree is
// window-scoped only.
func (c *CAT) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	return cmds
}

// OnNewWindow implements mitigation.Mitigator: the paper — "the tree is
// reset at each new refresh window".
func (c *CAT) OnNewWindow() {
	for b := range c.banks {
		arena := c.banks[b][:0]
		arena = append(arena, node{
			lo: 0, hi: int32(c.cfg.RowsPerBank), left: -1, right: -1,
		})
		c.banks[b] = arena
	}
}

// Reset implements mitigation.Mitigator.
func (c *CAT) Reset() {
	for b := range c.banks {
		c.banks[b] = nil
	}
	for b := range c.banks {
		c.banks[b] = []node{{lo: 0, hi: int32(c.cfg.RowsPerBank), left: -1, right: -1}}
	}
	c.Saturations = 0
}

// TableBytesPerBank implements mitigation.Mitigator.
func (c *CAT) TableBytesPerBank() int { return c.cfg.TableBytes() }

// TableBytes returns the per-bank storage of a tree with this
// configuration: MaxNodes of counter plus two child indices.
func (c Config) TableBytes() int {
	cntBits := mitigation.FieldBits(c.TriggerThreshold)
	idxBits := mitigation.FieldBits(uint32(c.MaxNodes))
	return c.MaxNodes * (cntBits + 2*idxBits) / 8
}

// TableBytes implements mitigation.Sizer for Factory's configuration.
func TableBytes(t mitigation.Target) int {
	return DefaultConfig(t.RowsPerBank, t.FlipThreshold).TableBytes()
}

// EscalatesUnderAttack implements mitigation.Escalation: counting
// escalates deterministically (while the tree can still refine).
func (c *CAT) EscalatesUnderAttack() bool { return true }

// ActCycles implements mitigation.CycleModel: one cycle per tree level.
func (c *CAT) ActCycles() int {
	levels := 0
	for v := c.cfg.RowsPerBank; v > 1; v >>= 1 {
		levels++
	}
	return levels + 2
}

// RefCycles implements mitigation.CycleModel.
func (c *CAT) RefCycles() int { return 1 }

// Nodes returns the current node count of a bank's tree.
func (c *CAT) Nodes(bank int) int { return len(c.banks[bank]) }

func init() { mitigation.Register("CAT", Factory, TableBytes) }
