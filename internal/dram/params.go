// Package dram models a DDR4 DRAM device at the granularity relevant for
// Row-Hammer studies: banks, rows, refresh windows and intervals, a
// per-row disturbance counter (charge loss caused by neighbor activations),
// and the act_n "activate neighbors" maintenance command used by
// memory-controller-level mitigations.
//
// The model is trace-level, not cell-level: a victim row flips bits when
// the combined activations of its two physical neighbors since the victim
// was last refreshed (or activated itself) reach the flip threshold, the
// experimentally established 139 K of Kim et al. [12] used by the paper.
package dram

import (
	"fmt"
	"math"
)

// Params describes the simulated device. The zero value is not usable;
// start from PaperParams, ScaledParams or FullDIMMParams and adjust.
type Params struct {
	// Banks is the number of independently attackable banks. When Ranks
	// or BankGroups are set, Banks is the bank count per bank group and
	// the total population is Ranks × BankGroups × Banks (TotalBanks);
	// when both are zero — every pre-geometry configuration — Banks is
	// the total, exactly as before.
	Banks int
	// Ranks is the number of ranks on the DIMM (0 means 1: a flat
	// single-rank device, the legacy interpretation of Banks).
	Ranks int `json:",omitempty"`
	// BankGroups is the number of bank groups per rank (0 means 1).
	// DDR4 organizes banks into groups of four; the full-DIMM geometry
	// is 1 rank × 8 groups × 4 banks.
	BankGroups int `json:",omitempty"`
	// RowsPerBank is the number of rows in each bank.
	RowsPerBank int
	// State selects the per-row state representation (StateAuto picks
	// dense for small populations, lazily-paged sparse for large ones).
	State StateMode `json:",omitempty"`
	// RefInt is the number of refresh intervals in one refresh window
	// (tREFW / tREFI; 64 ms / 7.8 µs = 8192 for DDR4).
	RefInt int
	// FlipThreshold is the combined neighbor-activation count at which a
	// victim row flips bits (139 K in the paper).
	FlipThreshold uint32

	// Timing, used by the controller model and for cycle budgets.
	TRCNs        float64 // activate-to-activate, same bank (45 ns)
	TRefIntNs    float64 // refresh interval tREFI (7800 ns)
	TRFCNs       float64 // refresh command duration (350 ns)
	IOFreqGHz    float64 // DDR4 interface frequency (1.2 GHz)
	RowBytes     int     // bytes per row (8 KB)
	MaxActsPerRI int     // max activations per bank per refresh interval (165)
}

// StateMode selects the device's per-row state representation: the dense
// preallocated arrays of the original simulator, or lazily-paged sparse
// stores whose heap is O(touched rows) instead of O(population).
type StateMode int8

const (
	// StateAuto picks dense below sparseAutoRows total rows and sparse at
	// or above it — small devices keep the flat fast path, full-DIMM
	// populations pay only for the rows they touch.
	StateAuto StateMode = iota
	// StateDense forces the flat preallocated arrays.
	StateDense
	// StateSparse forces the lazily-paged stores.
	StateSparse
)

// sparseAutoRows is the StateAuto threshold: a device whose total row
// population (TotalBanks × RowsPerBank) reaches it uses sparse state.
// 2^21 rows keeps the scaled test geometry (65536 rows) dense and makes
// every full-DIMM geometry (≥ 2M rows) sparse.
const sparseAutoRows = 1 << 21

// String implements fmt.Stringer.
func (m StateMode) String() string {
	switch m {
	case StateAuto:
		return "auto"
	case StateDense:
		return "dense"
	case StateSparse:
		return "sparse"
	default:
		return fmt.Sprintf("StateMode(%d)", int(m))
	}
}

// TotalBanks returns the independently attackable bank population:
// Ranks × BankGroups × Banks, with zero geometry fields reading as 1 so
// legacy configurations (Banks alone) keep their meaning.
func (p Params) TotalBanks() int {
	n := p.Banks
	if p.Ranks > 1 {
		n *= p.Ranks
	}
	if p.BankGroups > 1 {
		n *= p.BankGroups
	}
	return n
}

// TotalRows returns the device's whole row population across banks.
func (p Params) TotalRows() int { return p.TotalBanks() * p.RowsPerBank }

// Sparse reports whether the parameters select the lazily-paged state
// representation (explicitly, or via the StateAuto population threshold).
func (p Params) Sparse() bool {
	switch p.State {
	case StateDense:
		return false
	case StateSparse:
		return true
	default:
		return p.TotalRows() >= sparseAutoRows
	}
}

// PaperParams returns the full Table I configuration: 1 GB banks of 8 KB
// rows (131072 rows), 8192 refresh intervals per 64 ms window.
func PaperParams() Params {
	return Params{
		Banks:         16,
		RowsPerBank:   131072,
		RefInt:        8192,
		FlipThreshold: 139000,
		TRCNs:         45,
		TRefIntNs:     7800,
		TRFCNs:        350,
		IOFreqGHz:     1.2,
		RowBytes:      8192,
		MaxActsPerRI:  165,
	}
}

// ScaledParams returns a reduced configuration for fast tests and default
// simulator runs: the same refresh structure (16 rows per interval) with
// fewer rows, banks, and intervals per window. The flip threshold scales
// with the per-window activation budget so the attack remains exactly as
// feasible as at paper scale (threshold / max-acts-per-window ≈ 0.1 in
// both). All reported rates (overhead %, FPR %) are scale-invariant.
func ScaledParams() Params {
	p := PaperParams()
	p.Banks = 4
	p.RowsPerBank = 16384
	p.RefInt = 1024 // 16 rows per interval, as in the paper
	// The threshold cannot scale purely with the window budget: a
	// probabilistic mitigation's miss probability depends on the number
	// of Bernoulli trials before the threshold, and fewer intervals per
	// window would overstate every technique's tail risk. 40960 keeps the
	// protection hazard integral (rate * Pbase * intervals^2 / 2) at the
	// paper's value of ≈7-12 while remaining well below the per-window
	// activation budget, so unmitigated attacks still flip.
	p.FlipThreshold = 40960
	return p
}

// FullDIMMParams returns a realistic whole-DIMM population: 1 rank of 8
// DDR4 bank groups × 4 banks, each bank 64K rows — 32 banks and 2M rows,
// the scale BlockHammer/Graphene-class evaluations size their trackers
// against. The refresh structure and thresholds match ScaledParams (the
// scale-invariant calibration), so per-rate results remain comparable;
// only the population grows. StateAuto resolves to the sparse
// representation at this scale, so heap stays O(touched rows).
func FullDIMMParams() Params {
	p := ScaledParams()
	p.Ranks = 1
	p.BankGroups = 8
	p.Banks = 4
	p.RowsPerBank = 65536
	p.RefInt = 8192 // 8 rows per interval
	return p
}

// maxTotalBanks bounds the bank population a single simulation will
// instantiate (one lane, device and mitigation instance per bank).
const maxTotalBanks = 1 << 16

// Validate reports structural problems with the parameters.
func (p Params) Validate() error {
	switch {
	case p.Banks <= 0:
		return fmt.Errorf("dram: Banks = %d, must be positive", p.Banks)
	case p.Ranks < 0:
		return fmt.Errorf("dram: Ranks = %d, must be non-negative (0 means 1)", p.Ranks)
	case p.BankGroups < 0:
		return fmt.Errorf("dram: BankGroups = %d, must be non-negative (0 means 1)", p.BankGroups)
	case p.TotalBanks() > maxTotalBanks:
		return fmt.Errorf("dram: %d total banks (ranks %d × bank groups %d × banks %d) exceeds the %d-bank cap",
			p.TotalBanks(), p.Ranks, p.BankGroups, p.Banks, maxTotalBanks)
	case p.State < StateAuto || p.State > StateSparse:
		return fmt.Errorf("dram: unknown state mode %d", int(p.State))
	case p.RowsPerBank <= 1:
		return fmt.Errorf("dram: RowsPerBank = %d, must be at least 2", p.RowsPerBank)
	case p.RefInt <= 0:
		return fmt.Errorf("dram: RefInt = %d, must be positive", p.RefInt)
	case p.RowsPerBank%p.RefInt != 0:
		return fmt.Errorf("dram: RowsPerBank (%d) must be a multiple of RefInt (%d)",
			p.RowsPerBank, p.RefInt)
	case p.FlipThreshold == 0:
		return fmt.Errorf("dram: FlipThreshold must be positive")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"TRCNs", p.TRCNs}, {"TRefIntNs", p.TRefIntNs}, {"TRFCNs", p.TRFCNs}, {"IOFreqGHz", p.IOFreqGHz}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("dram: %s = %v, must be finite", f.name, f.v)
		}
	}
	return nil
}

// BankCoord decomposes a flat bank index in [0, TotalBanks) into its
// (rank, bank group, bank) coordinate, rank-major — the inverse of
// FlatBank. Mitigation state and lanes are instantiated per flat bank;
// the coordinate view exists for reports and address-mapping checks.
func (p Params) BankCoord(flat int) (rank, group, bank int) {
	bg := p.BankGroups
	if bg < 1 {
		bg = 1
	}
	bank = flat % p.Banks
	flat /= p.Banks
	group = flat % bg
	rank = flat / bg
	return rank, group, bank
}

// FlatBank composes a (rank, bank group, bank) coordinate into the flat
// bank index lanes and mitigation tables are keyed by.
func (p Params) FlatBank(rank, group, bank int) int {
	bg := p.BankGroups
	if bg < 1 {
		bg = 1
	}
	return (rank*bg+group)*p.Banks + bank
}

// RowsPerInterval returns how many rows each refresh interval refreshes
// (RowsPI in the paper).
func (p Params) RowsPerInterval() int { return p.RowsPerBank / p.RefInt }

// RefreshIntervalOf returns fr, the in-window refresh interval in which row
// r is refreshed under the paper's neighboring-addresses assumption
// (fr = r / RowsPI). Mitigations use this even when the device actually
// refreshes in a different order; that mismatch is exactly what the
// refresh-policy experiment of Section IV studies.
func (p Params) RefreshIntervalOf(row int) int { return row / p.RowsPerInterval() }

// ActCycleBudget returns how many mitigation clock cycles fit between two
// activations of the same bank (tRC at the interface frequency); 54 for the
// paper's DDR4 parameters.
func (p Params) ActCycleBudget() int { return int(p.TRCNs * p.IOFreqGHz) }

// RefCycleBudget returns how many mitigation clock cycles fit within a
// refresh command (tRFC at the interface frequency); 420 for the paper's
// DDR4 parameters.
func (p Params) RefCycleBudget() int { return int(p.TRFCNs * p.IOFreqGHz) }
