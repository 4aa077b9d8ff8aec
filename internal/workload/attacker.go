package workload

import (
	"fmt"
	"sort"

	"tivapromi/internal/rng"
)

// Attacker models the paper's attacker code: cache-flush hammering in the
// style of Kim et al. [12], with the number of aggressor rows per targeted
// bank ramping gradually from MinAggressors to MaxAggressors over the
// planned access budget. Because every attacker access is preceded by a
// CLFLUSH, each one reaches DRAM; aggressors are visited round-robin, so
// consecutive accesses hit different rows and every access is a row
// activation.
//
// The per-access path is division-free: the ramp position and the burst
// rotation are tracked as countdown state updated in place, so Next costs
// a handful of compares and increments rather than two 64-bit divisions.
type Attacker struct {
	cfg AttackerConfig

	// aggressors[b] lists the full aggressor schedule for targeted bank
	// index b; the active prefix grows with the ramp.
	aggressors [][]int
	victims    [][]int
	conflict   []int // per-bank dummy row forcing row conflicts when k == 1

	// The attacker dwells on one victim's aggressor pair per bank for a
	// whole burst (tens of thousands of accesses), alternating two rows by
	// access parity. pairEven/pairOdd cache those two rows per bank index,
	// refreshed only when the dwell target changes (ramp growth or burst
	// rotation), so the per-access path is a parity test and one load
	// instead of re-deriving the rotation window and double-indexing the
	// aggressor schedule.
	tb       []int // cfg.TargetBanks, local for the hot path
	pairEven []int
	pairOdd  []int
	pat      []attackSlot // run's scratch: the dwell pattern

	issued uint64
	pos    int // round-robin cursor
	bankAt int // round-robin over targeted banks
	nBanks int
	src    *rng.XorShift64Star

	// Ramp and burst state, kept incrementally so the hot path never
	// divides. curK == MinAggressors + span*issued/PlannedAccesses (capped)
	// at every access, and vi == (pos/BurstAccesses) % nv.
	curK      int
	nextRamp  uint64 // issued count at which curK next grows
	nv        int    // victims covered by curK aggressor rows
	vi        int    // victim index currently being hammered
	burstIdx  uint64 // pos / BurstAccesses
	burstLeft uint64 // accesses until burstIdx advances
}

// AttackerConfig describes the attack campaign.
type AttackerConfig struct {
	// TargetBanks are the banks under attack.
	TargetBanks []int
	// RowsPerBank bounds row addresses.
	RowsPerBank int
	// MinAggressors..MaxAggressors is the ramp of aggressor rows per
	// targeted bank (1..20 in the paper).
	MinAggressors int
	MaxAggressors int
	// PlannedAccesses is the access budget over which the ramp completes.
	PlannedAccesses uint64
	// BurstAccesses is how long the attacker dwells on one victim's
	// aggressor pair before rotating to the next victim in the active
	// set. Hammering is sequential (one victim at a time at full rate,
	// like a real flush+reload loop); the ramp only grows the rotation
	// set. Zero selects a default of 65536 — roughly a full refresh
	// window of per-bank hammering, so each victim in the rotation gets
	// a flip-capable dwell when its turn comes.
	BurstAccesses uint64
	// Seed drives victim placement.
	Seed uint64
}

// Validate reports configuration problems.
func (c AttackerConfig) Validate() error {
	switch {
	case len(c.TargetBanks) == 0:
		return fmt.Errorf("workload: attacker needs at least one target bank")
	case c.RowsPerBank < 64:
		return fmt.Errorf("workload: RowsPerBank = %d too small for an attack", c.RowsPerBank)
	case c.MinAggressors < 1 || c.MaxAggressors < c.MinAggressors:
		return fmt.Errorf("workload: bad aggressor ramp [%d, %d]", c.MinAggressors, c.MaxAggressors)
	case c.PlannedAccesses == 0:
		return fmt.Errorf("workload: PlannedAccesses must be positive")
	}
	return nil
}

// DefaultAttackerConfig is the paper's campaign: 1→20 aggressors per
// targeted bank.
func DefaultAttackerConfig(targetBanks []int, rowsPerBank int, planned uint64, seed uint64) AttackerConfig {
	return AttackerConfig{
		TargetBanks:     targetBanks,
		RowsPerBank:     rowsPerBank,
		MinAggressors:   1,
		MaxAggressors:   20,
		PlannedAccesses: planned,
		Seed:            seed,
	}
}

// NewAttacker builds the attacker, placing victims pseudo-randomly but
// well-separated within each targeted bank.
func NewAttacker(cfg AttackerConfig) (*Attacker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BurstAccesses == 0 {
		cfg.BurstAccesses = 65536
	}
	a := &Attacker{
		cfg:        cfg,
		aggressors: make([][]int, len(cfg.TargetBanks)),
		victims:    make([][]int, len(cfg.TargetBanks)),
		conflict:   make([]int, len(cfg.TargetBanks)),
		nBanks:     len(cfg.TargetBanks),
		src:        rng.NewXorShift64Star(cfg.Seed ^ 0xa77ac8),
	}
	nVictims := (cfg.MaxAggressors + 1) / 2
	for b := range cfg.TargetBanks {
		stride := cfg.RowsPerBank / (nVictims + 2)
		offset := 2 + rng.Intn(a.src, stride-2)
		for j := 0; j < nVictims; j++ {
			v := offset + j*stride
			a.victims[b] = append(a.victims[b], v)
			// Double-sided pair: both neighbors of the victim.
			a.aggressors[b] = append(a.aggressors[b], v-1, v+1)
		}
		a.aggressors[b] = a.aggressors[b][:cfg.MaxAggressors]
		a.conflict[b] = (offset + nVictims*stride + stride/2) % cfg.RowsPerBank
	}
	a.curK = cfg.MinAggressors
	a.nv = (a.curK + 1) / 2
	a.nextRamp = a.rampAt(1)
	a.burstLeft = cfg.BurstAccesses
	a.tb = append([]int(nil), cfg.TargetBanks...)
	a.pairEven = make([]int, a.nBanks)
	a.pairOdd = make([]int, a.nBanks)
	a.pat = make([]attackSlot, 2*a.nBanks)
	a.refreshPairs()
	return a, nil
}

// rampAt returns the issued count at which the ramp reaches
// MinAggressors+j: the smallest issued with span*issued/Planned >= j.
func (a *Attacker) rampAt(j int) uint64 {
	span := uint64(a.cfg.MaxAggressors - a.cfg.MinAggressors + 1)
	return (uint64(j)*a.cfg.PlannedAccesses + span - 1) / span
}

// advanceRamp catches curK up with the analytic ramp position.
func (a *Attacker) advanceRamp() {
	for a.issued >= a.nextRamp && a.curK < a.cfg.MaxAggressors {
		a.curK++
		a.nv = (a.curK + 1) / 2
		a.vi = int(a.burstIdx % uint64(a.nv))
		a.nextRamp = a.rampAt(a.curK - a.cfg.MinAggressors + 1)
	}
	a.refreshPairs()
}

// refreshPairs recomputes the cached per-bank (even, odd) dwell rows from
// the current ramp position and rotation index. Called only when those
// change — once per ramp step and once per burst.
func (a *Attacker) refreshPairs() {
	k := a.curK
	for b := range a.tb {
		var even, odd int
		if k == 1 {
			// Alternate the single aggressor and a conflict row.
			even, odd = a.aggressors[b][0], a.conflict[b]
		} else {
			lo := 2 * a.vi
			hi := lo + 2
			if hi > k {
				hi = k // odd k: the last victim is hammered single-sided
			}
			if hi-lo == 1 {
				even, odd = a.aggressors[b][lo], a.conflict[b]
			} else {
				even, odd = a.aggressors[b][lo], a.aggressors[b][lo+1]
			}
		}
		a.pairEven[b], a.pairOdd[b] = even, odd
	}
}

// Name implements Generator.
func (a *Attacker) Name() string { return "attacker" }

// ActiveAggressors returns the current aggressor count per targeted bank
// (the ramp position).
func (a *Attacker) ActiveAggressors() int {
	span := a.cfg.MaxAggressors - a.cfg.MinAggressors + 1
	k := a.cfg.MinAggressors + int(uint64(span)*a.issued/a.cfg.PlannedAccesses)
	if k > a.cfg.MaxAggressors {
		k = a.cfg.MaxAggressors
	}
	return k
}

// Next implements Generator: the attacker dwells on one victim's
// aggressor pair per bank (alternating its two sides at full rate — every
// access a row conflict), rotating to the next victim of the active set
// every BurstAccesses. With a single active aggressor, accesses alternate
// with a conflict row so each hammer still causes an activation under an
// open-page controller.
func (a *Attacker) Next() Access {
	if a.issued >= a.nextRamp && a.curK < a.cfg.MaxAggressors {
		a.advanceRamp()
	}
	a.issued++
	b := a.bankAt
	a.bankAt++
	if a.bankAt == a.nBanks {
		a.bankAt = 0
	}
	if b == 0 {
		a.pos++
		a.burstLeft--
		if a.burstLeft == 0 {
			a.burstLeft = a.cfg.BurstAccesses
			a.burstIdx++
			a.vi = int(a.burstIdx % uint64(a.nv))
			a.refreshPairs()
		}
	}
	if a.pos&1 == 0 {
		return Access{Bank: a.tb[b], Row: a.pairEven[b]}
	}
	return Access{Bank: a.tb[b], Row: a.pairOdd[b]}
}

// EachAggressor calls fn for every (bank, row) the campaign will ever
// hammer, in deterministic order. The simulation harness uses it to build
// its dense classification bitset without materializing a set.
func (a *Attacker) EachAggressor(fn func(bank, row int)) {
	for b, bank := range a.cfg.TargetBanks {
		for _, r := range a.aggressors[b] {
			fn(bank, r)
		}
	}
}

// RowAddr identifies one row within one bank.
type RowAddr struct {
	Bank int
	Row  int
}

// Aggressors returns every (bank, row) the campaign will ever hammer —
// the ground truth used for false-positive accounting — sorted by bank
// then row. The slice is freshly allocated; callers may keep it.
func (a *Attacker) Aggressors() []RowAddr {
	out := make([]RowAddr, 0, len(a.cfg.TargetBanks)*a.cfg.MaxAggressors)
	for b, bank := range a.cfg.TargetBanks {
		for _, r := range a.aggressors[b] {
			out = append(out, RowAddr{Bank: bank, Row: r})
		}
	}
	sortRowAddrs(out)
	return out
}

// Victims returns every victim (bank, row) of the campaign, sorted by
// bank then row.
func (a *Attacker) Victims() []RowAddr {
	out := make([]RowAddr, 0, len(a.cfg.TargetBanks)*len(a.victims[0]))
	for b, bank := range a.cfg.TargetBanks {
		for _, v := range a.victims[b] {
			out = append(out, RowAddr{Bank: bank, Row: v})
		}
	}
	sortRowAddrs(out)
	return out
}

func sortRowAddrs(s []RowAddr) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Bank != s[j].Bank {
			return s[i].Bank < s[j].Bank
		}
		return s[i].Row < s[j].Row
	})
}
