package core

import (
	"fmt"

	"tivapromi/internal/mitigation"
	"tivapromi/internal/rng"
)

// Variant selects the time-varying weighting scheme.
type Variant int

const (
	// LiPRoMi uses the linear weight of Eq. 1 directly. Finest-grained,
	// but the slow weight ramp after a refresh leaves a window that a
	// flooding attacker can exploit (Section III-A).
	LiPRoMi Variant = iota
	// LoPRoMi uses the logarithmic weight of Eq. 2: weights ramp fast at
	// low values, closing the flooding window at the cost of more extra
	// activations.
	LoPRoMi
	// LoLiPRoMi uses the linear weight when the row is in the history
	// table (an extra activation already happened, so urgency is lower)
	// and the logarithmic weight otherwise.
	LoLiPRoMi
	// QuaPRoMi is an EXTENSION beyond the paper (its Section III invites
	// "other weighting methods"): quadratic weighting w²/RefInt, the
	// mirror image of Eq. 2 — probabilities stay minimal for longer and
	// ramp late. It trades even fewer extra activations for a wider
	// flooding window than LiPRoMi; the experiments quantify both.
	QuaPRoMi
)

// String implements fmt.Stringer using the paper's names.
func (v Variant) String() string {
	switch v {
	case LiPRoMi:
		return "LiPRoMi"
	case LoPRoMi:
		return "LoPRoMi"
	case LoLiPRoMi:
		return "LoLiPRoMi"
	case QuaPRoMi:
		return "QuaPRoMi"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterizes the purely probabilistic TiVaPRoMi variants.
type Config struct {
	// RowsPerBank and RefInt describe the device; RowsPerInterval is
	// derived (RowsPerBank / RefInt).
	RowsPerBank int
	RefInt      int
	// HistoryEntries is the per-bank history-table size (32 in the paper).
	HistoryEntries int
	// RowBits is the row-address width for storage accounting (17 for
	// 1 GB banks of 8 KB rows).
	RowBits int
	// ProbBitsDelta shifts the comparator resolution for ablation
	// studies: the effective Pbase becomes 2^-(ProbBits(RefInt)+delta),
	// scaling every probability by 2^-delta. 0 is the paper's choice
	// (RefInt * Pbase ≈ 0.001).
	ProbBitsDelta int
}

// DefaultConfig returns the paper's table sizing for a device geometry.
func DefaultConfig(rowsPerBank, refInt int) Config {
	return Config{
		RowsPerBank:    rowsPerBank,
		RefInt:         refInt,
		HistoryEntries: 32,
		RowBits:        bitsForRows(rowsPerBank),
	}
}

func bitsForRows(rows int) int {
	n := 0
	for v := rows - 1; v > 0; v >>= 1 {
		n++
	}
	if n == 0 {
		n = 1
	}
	return n
}

// Validate reports configuration problems.
func (c Config) Validate() error {
	switch {
	case c.RowsPerBank <= 1:
		return fmt.Errorf("core: RowsPerBank = %d", c.RowsPerBank)
	case c.RefInt <= 0 || c.RefInt&(c.RefInt-1) != 0:
		return fmt.Errorf("core: RefInt = %d must be a positive power of two", c.RefInt)
	case c.RowsPerBank%c.RefInt != 0:
		return fmt.Errorf("core: RowsPerBank (%d) not a multiple of RefInt (%d)", c.RowsPerBank, c.RefInt)
	case c.HistoryEntries <= 0:
		return fmt.Errorf("core: HistoryEntries = %d", c.HistoryEntries)
	}
	return nil
}

// intervalBits returns the width of a stored refresh-interval timestamp.
func (c Config) intervalBits() int {
	n := 0
	for v := c.RefInt - 1; v > 0; v >>= 1 {
		n++
	}
	return n
}

// HistoryBytes returns the history-table storage per bank: entries *
// (row address + interval timestamp) bits. For the paper's parameters
// (32 entries, 17 row bits, 13 interval bits) this is the published 120 B.
func (c Config) HistoryBytes() int {
	return c.HistoryEntries * (c.RowBits + c.intervalBits()) / 8
}

// TiVaPRoMi is one of the three purely probabilistic variants (LiPRoMi,
// LoPRoMi, LoLiPRoMi) over all banks. Create instances with New.
type TiVaPRoMi struct {
	cfg     Config
	variant Variant
	// tables holds one history table per bank, stored flat (by value) so
	// the per-activation bank dispatch is one index into a contiguous
	// slice instead of a pointer chase.
	tables []HistoryTable
	// lutHit/lutMiss are the precomputed fixed-point Bernoulli trigger
	// thresholds for every possible raw weight w in [0, RefInt): the
	// effective weight that enters the comparator when the activated row
	// is in the history table (lutHit) or not (lutMiss). They fold the
	// per-variant Weight→LogWeight/QuadWeight mapping out of the
	// per-activation path; the hardware analogue is the modified priority
	// encoder of Eq. 2, which is likewise a pure combinational function of
	// the interval difference.
	lutHit  []int32
	lutMiss []int32
	bern    *rng.Bernoulli
	src     *rng.LFSR32
	// override, when non-nil, replaces the built-in LFSR on the Bernoulli
	// decision path (fault-injection studies; see
	// mitigation.RandSettable).
	override rng.Source
	seed     uint64
	shift    uint // log2(RowsPerInterval): fr = row >> shift
}

// New builds a TiVaPRoMi instance for the given bank count. It returns an
// error for invalid configurations.
func New(variant Variant, banks int, cfg Config, seed uint64) (*TiVaPRoMi, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if banks <= 0 {
		return nil, fmt.Errorf("core: banks = %d", banks)
	}
	rpi := cfg.RowsPerBank / cfg.RefInt
	if rpi&(rpi-1) != 0 {
		return nil, fmt.Errorf("core: RowsPerInterval = %d must be a power of two", rpi)
	}
	shift := uint(0)
	for v := rpi; v > 1; v >>= 1 {
		shift++
	}
	t := &TiVaPRoMi{
		cfg:     cfg,
		variant: variant,
		tables:  make([]HistoryTable, banks),
		seed:    seed,
		shift:   shift,
	}
	for b := range t.tables {
		t.tables[b] = *NewHistoryTable(cfg.HistoryEntries)
	}
	t.lutHit, t.lutMiss = buildWeightLUTs(variant, cfg.RefInt)
	t.Reset()
	return t, nil
}

// buildWeightLUTs precomputes the per-variant effective-weight tables for
// every raw weight in [0, refInt). hit applies when the activated row is
// in the history table, miss when it is not; only LoLiPRoMi distinguishes
// the two.
func buildWeightLUTs(variant Variant, refInt int) (hit, miss []int32) {
	hit = make([]int32, refInt)
	miss = make([]int32, refInt)
	for w := 0; w < refInt; w++ {
		hit[w] = int32(variantWeight(variant, w, true, refInt))
		miss[w] = int32(variantWeight(variant, w, false, refInt))
	}
	return hit, miss
}

// variantWeight is the reference (unmemoized) per-variant weighting; the
// LUTs are built from it and the out-of-range fallback uses it directly.
func variantWeight(variant Variant, w int, inTable bool, refInt int) int {
	switch variant {
	case LiPRoMi:
		return w
	case LoPRoMi:
		return LogWeight(w)
	case LoLiPRoMi:
		if inTable {
			return w
		}
		return LogWeight(w)
	case QuaPRoMi:
		return QuadWeight(w, refInt)
	default:
		panic("core: unknown variant")
	}
}

// MustNew is New for static configurations; it panics on error.
func MustNew(variant Variant, banks int, cfg Config, seed uint64) *TiVaPRoMi {
	t, err := New(variant, banks, cfg, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// LiFactory, LoFactory and LoLiFactory adapt the three variants to the
// mitigation registry.
func LiFactory(t mitigation.Target, seed uint64) mitigation.Mitigator {
	return MustNew(LiPRoMi, t.Banks, DefaultConfig(t.RowsPerBank, t.RefInt), seed)
}

// LoFactory builds a LoPRoMi instance; see LiFactory.
func LoFactory(t mitigation.Target, seed uint64) mitigation.Mitigator {
	return MustNew(LoPRoMi, t.Banks, DefaultConfig(t.RowsPerBank, t.RefInt), seed)
}

// LoLiFactory builds a LoLiPRoMi instance; see LiFactory.
func LoLiFactory(t mitigation.Target, seed uint64) mitigation.Mitigator {
	return MustNew(LoLiPRoMi, t.Banks, DefaultConfig(t.RowsPerBank, t.RefInt), seed)
}

// Name implements mitigation.Mitigator.
func (t *TiVaPRoMi) Name() string { return t.variant.String() }

// Variant returns the weighting scheme.
func (t *TiVaPRoMi) Variant() Variant { return t.variant }

// Config returns the configuration.
func (t *TiVaPRoMi) Config() Config { return t.cfg }

// EffectiveWeight computes the weight that enters the probability for an
// activation of row in the given in-window interval, implementing the
// per-variant logic. It is exported for white-box tests and the
// vulnerability analyzer.
func (t *TiVaPRoMi) EffectiveWeight(bank, row, interval int) int {
	since := int(row) >> t.shift // fr, the nominal refresh slot
	inTable := false
	if iv, ok := t.tables[bank].Lookup(row); ok {
		since = iv
		inTable = true
	}
	return t.effectiveWeight(interval, since, inTable)
}

// effectiveWeight resolves the trigger threshold for a raw interval
// distance through the precomputed LUTs, falling back to the reference
// computation for out-of-range weights (unreachable from valid state, but
// fault injection corrupts table timestamps and the fallback keeps the
// contract total).
func (t *TiVaPRoMi) effectiveWeight(interval, since int, inTable bool) int {
	w := Weight(interval, since, t.cfg.RefInt)
	lut := t.lutMiss
	if inTable {
		lut = t.lutHit
	}
	if uint(w) < uint(len(lut)) {
		return int(lut[w])
	}
	return variantWeight(t.variant, w, inTable, t.cfg.RefInt)
}

// OnActivate implements mitigation.Mitigator: Fig. 2's FSM loop — search
// the history table, compute the weight, decide probabilistically, and on
// a positive decision emit act_n and update the table. The path is
// allocation-free: the table search is a flat scan, the weight is a LUT
// load, and the Bernoulli draw jumps the LFSR 32 steps per word.
func (t *TiVaPRoMi) OnActivate(bank, row, interval int, cmds []mitigation.Command) []mitigation.Command {
	tb := &t.tables[bank]
	since, inTable := tb.Lookup(row)
	if !inTable {
		since = row >> t.shift
	}
	w := t.effectiveWeight(interval, since, inTable)
	if !t.bern.Trigger(uint64(w)) {
		return cmds
	}
	tb.Record(row, interval)
	return append(cmds, mitigation.Command{Kind: mitigation.ActN, Bank: bank, Row: row})
}

// OnRefreshInterval implements mitigation.Mitigator: the Fig. 2 FSM only
// updates its refresh-interval register on ref, so nothing is emitted.
func (t *TiVaPRoMi) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	return cmds
}

// OnNewWindow implements mitigation.Mitigator: the history table is
// cleared when a new refresh window starts.
func (t *TiVaPRoMi) OnNewWindow() {
	for b := range t.tables {
		t.tables[b].Clear()
	}
}

// Reset implements mitigation.Mitigator. An installed RNG override
// survives the reset (hardware RNG faults do not heal on state reset) but
// is reseeded so replays stay deterministic.
func (t *TiVaPRoMi) Reset() {
	// Power-on reset, not the window clear: fault injection can expose
	// row SRAM left over from the previous run (see HistoryTable.Reset).
	for b := range t.tables {
		t.tables[b].Reset()
	}
	t.src = rng.NewLFSR32(t.seed ^ 0x7177a)
	if t.override != nil {
		t.override.Seed(t.seed ^ 0x7177a)
	}
	t.rebuildBernoulli()
}

// rebuildBernoulli rewires the comparator onto the active entropy path.
func (t *TiVaPRoMi) rebuildBernoulli() {
	src := rng.Source(t.src)
	if t.override != nil {
		src = t.override
	}
	bits := int(ProbBits(t.cfg.RefInt)) + t.cfg.ProbBitsDelta
	if bits < 1 {
		bits = 1
	}
	t.bern = rng.NewBernoulli(src, uint(bits))
}

// SetRandSource implements mitigation.RandSettable: it reroutes the
// Bernoulli decision path onto src (nil restores the built-in LFSR)
// without touching table state — the fault arrives mid-run.
func (t *TiVaPRoMi) SetRandSource(src rng.Source) {
	t.override = src
	t.rebuildBernoulli()
}

// InjectStateFault implements mitigation.StateInjectable: one bit flip in
// a randomly chosen bank's history table (valid bit, row address or
// interval timestamp), modeling an SRAM single-event upset.
func (t *TiVaPRoMi) InjectStateFault(src rng.Source) bool {
	bank := rng.Intn(src, len(t.tables))
	return t.tables[bank].InjectBitFlip(src, t.cfg.RowBits, t.cfg.intervalBits())
}

// TableBytesPerBank implements mitigation.Mitigator.
func (t *TiVaPRoMi) TableBytesPerBank() int { return t.cfg.HistoryBytes() }

// Table exposes a bank's history table for white-box tests.
func (t *TiVaPRoMi) Table(bank int) *HistoryTable { return &t.tables[bank] }

// EscalatesUnderAttack implements mitigation.Escalation: the time-varying
// weight grows while an attack runs, raising the protection probability.
func (t *TiVaPRoMi) EscalatesUnderAttack() bool { return true }

// ActCycles implements mitigation.CycleModel; the values reproduce
// Table II and are derived from the FSM structure in internal/fsm (the
// fsm package's tests assert the correspondence).
func (t *TiVaPRoMi) ActCycles() int {
	switch t.variant {
	case LiPRoMi, LoPRoMi:
		return t.cfg.HistoryEntries + 5
	case LoLiPRoMi:
		return t.cfg.HistoryEntries + 4
	case QuaPRoMi:
		// The squaring multiplier adds a pipeline cycle to the weight
		// calculation.
		return t.cfg.HistoryEntries + 6
	default:
		panic("core: unknown variant")
	}
}

// RefCycles implements mitigation.CycleModel: update the interval
// register, detect window wrap, possibly reset the table (valid bits clear
// in one cycle) — 3 cycles for all Fig. 2 variants.
func (t *TiVaPRoMi) RefCycles() int { return 3 }

// QuaFactory builds the QuaPRoMi extension variant; see LiFactory.
func QuaFactory(t mitigation.Target, seed uint64) mitigation.Mitigator {
	return MustNew(QuaPRoMi, t.Banks, DefaultConfig(t.RowsPerBank, t.RefInt), seed)
}

// TableBytes implements mitigation.Sizer for the variants' factories:
// the history table of DefaultConfig.
func TableBytes(t mitigation.Target) int {
	return DefaultConfig(t.RowsPerBank, t.RefInt).HistoryBytes()
}

func init() {
	mitigation.Register("LiPRoMi", LiFactory, TableBytes)
	mitigation.Register("LoPRoMi", LoFactory, TableBytes)
	mitigation.Register("LoLiPRoMi", LoLiFactory, TableBytes)
	mitigation.Register("QuaPRoMi", QuaFactory, TableBytes)
}
