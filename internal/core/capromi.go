package core

import (
	"fmt"

	"tivapromi/internal/mitigation"
	"tivapromi/internal/rng"
)

// CaConfig parameterizes CaPRoMi, the counter-assisted variant.
type CaConfig struct {
	Config
	// CounterEntries is the per-bank counter-table size. The paper
	// optimizes between the DDR4 per-interval activation ceiling (165)
	// and the traces' average (≈40) and lands on 64.
	CounterEntries int
	// LockThreshold is the activation count at which an entry's lock bit
	// is set, protecting it from random replacement.
	LockThreshold uint32
	// MaxActsPerInterval sizes the counter field (165 for DDR4).
	MaxActsPerInterval int
}

// DefaultCaConfig returns the paper's CaPRoMi sizing.
func DefaultCaConfig(rowsPerBank, refInt int) CaConfig {
	return CaConfig{
		Config:             DefaultConfig(rowsPerBank, refInt),
		CounterEntries:     64,
		LockThreshold:      32,
		MaxActsPerInterval: 165,
	}
}

// Validate reports configuration problems.
func (c CaConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	switch {
	case c.CounterEntries <= 0:
		return fmt.Errorf("core: CounterEntries = %d", c.CounterEntries)
	case c.LockThreshold == 0:
		return fmt.Errorf("core: LockThreshold must be positive")
	case c.MaxActsPerInterval <= 0:
		return fmt.Errorf("core: MaxActsPerInterval = %d", c.MaxActsPerInterval)
	}
	return nil
}

// CounterBytes returns the counter-table storage per bank: entries *
// (row address + history link + counter + lock bit).
func (c CaConfig) CounterBytes() int {
	cntBits := 0
	for v := c.MaxActsPerInterval; v > 0; v >>= 1 {
		cntBits++
	}
	return c.CounterEntries * (c.RowBits + c.intervalBits() + cntBits + 1) / 8
}

// TotalBytes returns history plus counter table storage per bank (the
// paper reports 374 B for its parameters; the exact value depends on the
// assumed field packing — see EXPERIMENTS.md).
func (c CaConfig) TotalBytes() int { return c.HistoryBytes() + c.CounterBytes() }

// caEntry is one counter-table row.
type caEntry struct {
	row    int32
	cnt    uint32
	hist   int32 // linked history-table interval, -1 when absent
	locked bool
}

// CaPRoMi is the counter-assisted variant (Fig. 3 FSM): activations only
// update a per-interval counter table; the probabilistic decisions for all
// tracked rows are made collectively when the refresh command arrives,
// with p_r = cnt_r * w_log_r * Pbase.
type CaPRoMi struct {
	cfg CaConfig
	// hist holds one history table per bank, stored flat (by value) like
	// TiVaPRoMi's.
	hist []HistoryTable
	cnts [][]caEntry
	// loglut precomputes LogWeight for every raw weight in [0, RefInt),
	// taking Eq. 2 off the per-entry collective-decision loop.
	loglut []int32
	bern   *rng.Bernoulli
	src    *rng.LFSR32
	// override, when non-nil, replaces the built-in LFSR on the Bernoulli
	// decision path (fault-injection studies).
	override rng.Source
	repler   *rng.XorShift64Star // replacement-victim chooser
	seed     uint64
	shift    uint
	// ReplaceFails counts failed probabilistic replacements (all entries
	// locked), the Fig. 3 "fail" edge.
	ReplaceFails uint64
}

// NewCa builds a CaPRoMi instance for the given bank count.
func NewCa(banks int, cfg CaConfig, seed uint64) (*CaPRoMi, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if banks <= 0 {
		return nil, fmt.Errorf("core: banks = %d", banks)
	}
	rpi := cfg.RowsPerBank / cfg.RefInt
	shift := uint(0)
	for v := rpi; v > 1; v >>= 1 {
		shift++
	}
	c := &CaPRoMi{
		cfg:    cfg,
		hist:   make([]HistoryTable, banks),
		cnts:   make([][]caEntry, banks),
		loglut: make([]int32, cfg.RefInt),
		seed:   seed,
		shift:  shift,
	}
	for b := range c.hist {
		c.hist[b] = *NewHistoryTable(cfg.HistoryEntries)
		c.cnts[b] = make([]caEntry, 0, cfg.CounterEntries)
	}
	for w := 0; w < cfg.RefInt; w++ {
		c.loglut[w] = int32(LogWeight(w))
	}
	c.Reset()
	return c, nil
}

// MustNewCa is NewCa for configurations already validated by the caller;
// it panics on error (an invariant violation in a leaf package).
func MustNewCa(banks int, cfg CaConfig, seed uint64) *CaPRoMi {
	c, err := NewCa(banks, cfg, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// CaFactory adapts NewCa to the mitigation registry.
func CaFactory(t mitigation.Target, seed uint64) mitigation.Mitigator {
	c, err := NewCa(t.Banks, DefaultCaConfig(t.RowsPerBank, t.RefInt), seed)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements mitigation.Mitigator.
func (c *CaPRoMi) Name() string { return "CaPRoMi" }

// Config returns the configuration.
func (c *CaPRoMi) Config() CaConfig { return c.cfg }

// OnActivate implements mitigation.Mitigator: the Fig. 3 act path —
// search/increase the counter table, insert on miss (with the history
// table searched in parallel to link the stored trigger interval), and on
// a full table randomly replace an unlocked entry.
func (c *CaPRoMi) OnActivate(bank, row, _ int, cmds []mitigation.Command) []mitigation.Command {
	tbl := c.cnts[bank]
	r := int32(row)
	for i := range tbl {
		if tbl[i].row == r {
			tbl[i].cnt++
			if tbl[i].cnt >= c.cfg.LockThreshold {
				tbl[i].locked = true
			}
			return cmds
		}
	}
	// Miss: build the new entry, linking the history table if it knows r.
	e := caEntry{row: r, cnt: 1, hist: -1}
	if iv, ok := c.hist[bank].Lookup(row); ok {
		e.hist = int32(iv)
	}
	if len(tbl) < c.cfg.CounterEntries {
		c.cnts[bank] = append(tbl, e)
		return cmds
	}
	// Probabilistic replacement of one unlocked entry (Fig. 3: full →
	// replace, which can fail when the lock bits prevent it).
	victim := rng.Intn(c.repler, len(tbl))
	for tries := 0; tries < len(tbl); tries++ {
		if !tbl[victim].locked {
			tbl[victim] = e
			return cmds
		}
		victim = (victim + 1) % len(tbl)
	}
	c.ReplaceFails++
	return cmds
}

// OnRefreshInterval implements mitigation.Mitigator: the Fig. 3 ref path.
// Every counter-table entry gets a collective decision with probability
// cnt * w_log * Pbase; positive decisions update the history table and
// issue act_n for the entry's neighbors (the paper issues them during the
// next interval; the aggregate effect is identical). The counter table
// then restarts for the next interval.
func (c *CaPRoMi) OnRefreshInterval(interval int, cmds []mitigation.Command) []mitigation.Command {
	for b := range c.cnts {
		for i := range c.cnts[b] {
			e := &c.cnts[b][i]
			since := int(e.row) >> c.shift
			if e.hist >= 0 {
				since = int(e.hist)
			}
			w := Weight(interval, since, c.cfg.RefInt)
			var lw uint64
			if uint(w) < uint(len(c.loglut)) {
				lw = uint64(c.loglut[w])
			} else {
				// Unreachable from valid state; fault injection can plant
				// out-of-range history links.
				lw = uint64(LogWeight(w))
			}
			if c.bern.Trigger(uint64(e.cnt) * lw) {
				c.hist[b].Record(int(e.row), interval)
				cmds = append(cmds, mitigation.Command{
					Kind: mitigation.ActN, Bank: b, Row: int(e.row),
				})
			}
		}
		c.cnts[b] = c.cnts[b][:0]
	}
	return cmds
}

// OnNewWindow implements mitigation.Mitigator.
func (c *CaPRoMi) OnNewWindow() {
	for b := range c.hist {
		c.hist[b].Clear()
		c.cnts[b] = c.cnts[b][:0]
	}
}

// Reset implements mitigation.Mitigator. An installed RNG override
// survives the reset but is reseeded so replays stay deterministic.
func (c *CaPRoMi) Reset() {
	c.OnNewWindow()
	c.ReplaceFails = 0
	c.src = rng.NewLFSR32(c.seed ^ 0xca9a0)
	if c.override != nil {
		c.override.Seed(c.seed ^ 0xca9a0)
	}
	c.rebuildBernoulli()
	c.repler = rng.NewXorShift64Star(c.seed ^ 0x4e91ace)
}

// rebuildBernoulli rewires the comparator onto the active entropy path.
func (c *CaPRoMi) rebuildBernoulli() {
	src := rng.Source(c.src)
	if c.override != nil {
		src = c.override
	}
	bits := int(ProbBits(c.cfg.RefInt)) + c.cfg.ProbBitsDelta
	if bits < 1 {
		bits = 1
	}
	c.bern = rng.NewBernoulli(src, uint(bits))
}

// SetRandSource implements mitigation.RandSettable: it reroutes the
// collective-decision Bernoulli path onto src (nil restores the built-in
// LFSR). The replacement-victim chooser keeps its own generator — the
// modeled fault is in the decision LFSR, the paper's security-critical
// entropy.
func (c *CaPRoMi) SetRandSource(src rng.Source) {
	c.override = src
	c.rebuildBernoulli()
}

// InjectStateFault implements mitigation.StateInjectable: one bit flip in
// a randomly chosen bank, hitting the counter table when it has live
// entries (row address, count, history link or lock bit) and the history
// table otherwise. Flipped row addresses are wrapped into the bank, as
// the row decoder of a real device would.
func (c *CaPRoMi) InjectStateFault(src rng.Source) bool {
	bank := rng.Intn(src, len(c.cnts))
	tbl := c.cnts[bank]
	if len(tbl) == 0 || rng.Intn(src, 2) == 0 {
		return c.hist[bank].InjectBitFlip(src, c.cfg.RowBits, c.cfg.intervalBits())
	}
	e := &tbl[rng.Intn(src, len(tbl))]
	switch rng.Intn(src, 4) {
	case 0:
		e.row ^= 1 << rng.Intn(src, max(c.cfg.RowBits, 1))
		if int(e.row) >= c.cfg.RowsPerBank {
			e.row = int32(int(e.row) % c.cfg.RowsPerBank)
		}
	case 1:
		cntBits := 1
		for v := c.cfg.MaxActsPerInterval; v > 0; v >>= 1 {
			cntBits++
		}
		e.cnt ^= 1 << rng.Intn(src, cntBits)
	case 2:
		if e.hist < 0 {
			e.hist = int32(rng.Intn(src, c.cfg.RefInt))
		} else {
			e.hist ^= 1 << rng.Intn(src, max(c.cfg.intervalBits(), 1))
		}
	default:
		e.locked = !e.locked
	}
	return true
}

// TableBytesPerBank implements mitigation.Mitigator.
func (c *CaPRoMi) TableBytesPerBank() int { return c.cfg.TotalBytes() }

// History exposes a bank's history table for white-box tests.
func (c *CaPRoMi) History(bank int) *HistoryTable { return &c.hist[bank] }

// CounterOccupancy returns the live counter-table entries of a bank.
func (c *CaPRoMi) CounterOccupancy(bank int) int { return len(c.cnts[bank]) }

// EscalatesUnderAttack implements mitigation.Escalation: both the
// per-interval activation count and the time-varying weight grow while an
// attack runs.
func (c *CaPRoMi) EscalatesUnderAttack() bool { return true }

// ActCycles implements mitigation.CycleModel: the counter table is
// searched two entries per cycle (32 cycles for 64 entries) with the
// history-table search overlapped, plus insert/replace resolution —
// 50 cycles, matching Table II.
func (c *CaPRoMi) ActCycles() int { return c.cfg.CounterEntries/2 + 18 }

// RefCycles implements mitigation.CycleModel: the collective decision
// visits each counter entry (weight, multiply, compare, update — 4 cycles
// per entry) plus 2 cycles of interval bookkeeping — 258 for 64 entries,
// matching Table II.
func (c *CaPRoMi) RefCycles() int { return 4*c.cfg.CounterEntries + 2 }

// CaTableBytes implements mitigation.Sizer for CaFactory: the history
// and counter tables of DefaultCaConfig.
func CaTableBytes(t mitigation.Target) int {
	return DefaultCaConfig(t.RowsPerBank, t.RefInt).TotalBytes()
}

func init() { mitigation.Register("CaPRoMi", CaFactory, CaTableBytes) }
