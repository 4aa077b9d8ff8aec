// Package twice implements TWiCe (Lee et al., ISCA 2019: "TWiCe:
// Preventing Row-hammering by Exploiting Time Window Counters").
//
// TWiCe counts activations per row in a pruned per-bank table. The key
// insight: a row can only be a dangerous aggressor if it sustains a
// minimum activation rate, so at the end of every refresh interval each
// entry's count is compared against a threshold that grows with the
// entry's lifetime (life * thPI); entries below it provably cannot reach
// the Row-Hammer threshold within the window and are evicted. Rows whose
// count reaches thRH get a deterministic act_n. Counting makes TWiCe
// near-zero-overhead and zero-false-positive, but the CAM-backed table is
// large (≈3.2 KB per bank) and expensive in logic — the trade-off
// TiVaPRoMi's Fig. 4 positions itself against.
package twice

import (
	"tivapromi/internal/mitigation"
	"tivapromi/internal/rng"
)

// Config parameterizes TWiCe.
type Config struct {
	// ThRH is the activation count at which a row's neighbors are
	// refreshed. The canonical choice is FlipThreshold/4: halved because
	// both neighbors of a victim may be hammered, halved again as a
	// safety margin.
	ThRH uint32
	// RefInt is the number of refresh intervals per window; the pruning
	// threshold per interval is ThRH/RefInt.
	RefInt int
	// MaxEntries bounds the table, per the TWiCe paper's occupancy
	// analysis (≈550 entries suffice for DDR4). Overflow evictions are
	// counted in Overflows; they indicate the bound was violated.
	MaxEntries int
	// RowBits is the row-address width, for storage accounting.
	RowBits int
}

// DefaultConfig returns the DDR4 configuration for a given flip threshold
// and window structure.
func DefaultConfig(flipThreshold uint32, refInt int) Config {
	return Config{
		ThRH:       flipThreshold / 4,
		RefInt:     refInt,
		MaxEntries: 550,
		RowBits:    17,
	}
}

// TWiCe is the mitigation state. Create instances with New.
type TWiCe struct {
	cfg   Config
	banks []table
	// Overflows counts forced evictions beyond the pruning rule; a
	// correctly sized table keeps this at zero.
	Overflows uint64
}

type entry struct {
	row  int32
	cnt  uint32
	life uint32
}

type table struct {
	entries []entry
	// index maps row -> position in entries through a flat
	// open-addressing hash (see index.go); the seed used a Go map here,
	// which put a hash-interface call and heap traffic on every observed
	// activation.
	index *rowIndex
}

// New returns a TWiCe instance for the given bank count.
func New(banks int, cfg Config) *TWiCe {
	t := &TWiCe{cfg: cfg, banks: make([]table, banks)}
	t.Reset()
	return t
}

// Factory adapts New to the registry signature, deriving the trigger
// threshold from the target's flip threshold.
func Factory(t mitigation.Target, _ uint64) mitigation.Mitigator {
	return New(t.Banks, DefaultConfig(t.FlipThreshold, t.RefInt))
}

// Name implements mitigation.Mitigator.
func (t *TWiCe) Name() string { return "TWiCe" }

// OnActivate implements mitigation.Mitigator.
func (t *TWiCe) OnActivate(bank, row, _ int, cmds []mitigation.Command) []mitigation.Command {
	tb := &t.banks[bank]
	r := int32(row)
	if i, ok := tb.index.get(r); ok {
		e := &tb.entries[i]
		e.cnt++
		if e.cnt >= t.cfg.ThRH {
			// Deterministic mitigation; restart the count so another
			// thRH activations are needed before the next act_n.
			e.cnt = 0
			e.life = 0
			cmds = append(cmds, mitigation.Command{
				Kind: mitigation.ActN, Bank: bank, Row: row,
			})
		}
		return cmds
	}
	if len(tb.entries) >= t.cfg.MaxEntries {
		t.Overflows++
		t.evictColdest(tb)
	}
	tb.index.put(r, int32(len(tb.entries)))
	tb.entries = append(tb.entries, entry{row: r, cnt: 1})
	return cmds
}

// evictColdest removes the entry with the smallest count (a forced
// eviction used only on overflow).
func (t *TWiCe) evictColdest(tb *table) {
	min := 0
	for i := 1; i < len(tb.entries); i++ {
		if tb.entries[i].cnt < tb.entries[min].cnt {
			min = i
		}
	}
	t.removeAt(tb, min)
}

func (t *TWiCe) removeAt(tb *table, i int) {
	tb.index.del(tb.entries[i].row)
	last := len(tb.entries) - 1
	if i != last {
		tb.entries[i] = tb.entries[last]
		tb.index.put(tb.entries[i].row, int32(i))
	}
	tb.entries = tb.entries[:last]
}

// OnRefreshInterval implements mitigation.Mitigator: the pruning step.
// An entry of lifetime L must have accumulated at least L*ThRH/RefInt
// activations, or it cannot reach ThRH by the window's end and is evicted.
func (t *TWiCe) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	for b := range t.banks {
		tb := &t.banks[b]
		for i := 0; i < len(tb.entries); {
			e := &tb.entries[i]
			e.life++
			// Prune iff cnt < ThRH/RefInt * life, in integer math:
			if uint64(e.cnt)*uint64(t.cfg.RefInt) < uint64(t.cfg.ThRH)*uint64(e.life) {
				t.removeAt(tb, i)
				continue
			}
			i++
		}
	}
	return cmds
}

// OnNewWindow implements mitigation.Mitigator: counters are window-scoped.
func (t *TWiCe) OnNewWindow() {
	for b := range t.banks {
		t.banks[b].entries = t.banks[b].entries[:0]
		t.banks[b].index.clear()
	}
}

// Reset implements mitigation.Mitigator. The entry slice is preallocated
// to the table bound so the activation path never allocates.
func (t *TWiCe) Reset() {
	for b := range t.banks {
		if t.banks[b].entries == nil {
			t.banks[b].entries = make([]entry, 0, t.cfg.MaxEntries)
			t.banks[b].index = newRowIndex(t.cfg.MaxEntries)
		} else {
			t.banks[b].entries = t.banks[b].entries[:0]
			t.banks[b].index.clear()
		}
	}
	t.Overflows = 0
}

// TableBytesPerBank implements mitigation.Mitigator.
func (t *TWiCe) TableBytesPerBank() int { return t.cfg.TableBytes() }

// TableBytes returns the per-bank storage of a table with this
// configuration: MaxEntries CAM+count entries (row address, activation
// count, lifetime, valid bit).
func (c Config) TableBytes() int {
	cntBits := mitigation.FieldBits(c.ThRH)
	lifeBits := mitigation.FieldBits(uint32(c.RefInt))
	return c.MaxEntries * (c.RowBits + cntBits + lifeBits + 1) / 8
}

// TableBytes implements mitigation.Sizer for Factory's configuration.
func TableBytes(t mitigation.Target) int {
	return DefaultConfig(t.FlipThreshold, t.RefInt).TableBytes()
}

// ActCycles implements mitigation.CycleModel: a CAM lookup plus counter
// update — constant time, which is exactly why TWiCe needs the expensive
// CAM.
func (t *TWiCe) ActCycles() int { return 3 }

// RefCycles implements mitigation.CycleModel: the pruning pass touches
// every entry; hardware does this in parallel lanes, the serial equivalent
// is one cycle per entry.
func (t *TWiCe) RefCycles() int { return t.cfg.MaxEntries }

// Live returns the current number of live entries in a bank's table,
// for occupancy studies.
func (t *TWiCe) Live(bank int) int { return len(t.banks[bank].entries) }

// InjectStateFault implements mitigation.StateInjectable: one bit flip in
// the activation count or lifetime field of a random live entry (SRAM
// SEU). A count flipped high fires a premature act_n; flipped low (or a
// corrupted lifetime) the pruning rule silently evicts a real aggressor —
// the dangerous direction for a counter-based guarantee. Row-address CAM
// bits are left alone: the CAM index must stay coherent, and the count
// fields already cover both failure directions.
func (t *TWiCe) InjectStateFault(src rng.Source) bool {
	// Deterministically scan from a random bank for one with live entries.
	start := rng.Intn(src, len(t.banks))
	for off := 0; off < len(t.banks); off++ {
		tb := &t.banks[(start+off)%len(t.banks)]
		if len(tb.entries) == 0 {
			continue
		}
		e := &tb.entries[rng.Intn(src, len(tb.entries))]
		if rng.Intn(src, 2) == 0 {
			e.cnt ^= 1 << rng.Intn(src, mitigation.FieldBits(t.cfg.ThRH))
		} else {
			e.life ^= 1 << rng.Intn(src, mitigation.FieldBits(uint32(t.cfg.RefInt)))
		}
		return true
	}
	return false
}

// EscalatesUnderAttack implements mitigation.Escalation: counting is
// deterministic escalation.
func (t *TWiCe) EscalatesUnderAttack() bool { return true }

func init() { mitigation.Register("TWiCe", Factory, TableBytes) }
