// Package mitigation defines the interface every Row-Hammer mitigation
// technique implements, the command types mitigations emit toward the
// memory controller, and a registry used by the CLI tools.
//
// The driver protocol mirrors how a memory-controller extension observes
// traffic (Fig. 1 of the paper):
//
//	for each refresh interval i in a window:
//	    for each activation:    cmds = m.OnActivate(bank, row, i, cmds)
//	    at the interval's end:  cmds = m.OnRefreshInterval(i, cmds)
//	at the window's end:        m.OnNewWindow()
//
// Emitted commands are executed by the driver against the DRAM device.
package mitigation

import (
	"fmt"
	"math/bits"
	"sort"

	"tivapromi/internal/rng"
)

// CommandKind distinguishes the two maintenance commands mitigations use.
type CommandKind uint8

const (
	// ActN asks the device to activate both physical neighbors of Row,
	// resolving the internal mapping in the DRAM (the command used by
	// TWiCe, CRA and TiVaPRoMi).
	ActN CommandKind = iota
	// ActNOne activates the single physical neighbor on side Side of
	// Row (PARA refreshes one randomly chosen neighbor per trigger).
	ActNOne
	// RefreshRow refreshes one row addressed directly by its logical
	// address (the style ProHit and MRLoc use on their victim-table
	// entries; it can miss the real victim when rows are remapped).
	RefreshRow
)

// String implements fmt.Stringer.
func (k CommandKind) String() string {
	switch k {
	case ActN:
		return "act_n"
	case ActNOne:
		return "act_n_one"
	case RefreshRow:
		return "refresh_row"
	default:
		return fmt.Sprintf("CommandKind(%d)", uint8(k))
	}
}

// Command is one maintenance operation emitted by a mitigation.
type Command struct {
	Kind CommandKind
	Bank int
	Row  int
	// Side selects the neighbor for ActNOne (-1 or +1); ignored otherwise.
	Side int8
}

// Mitigator is a Row-Hammer mitigation technique. Implementations keep one
// state instance per bank internally (banks are attacked independently).
// Implementations are not safe for concurrent use.
type Mitigator interface {
	// Name returns the technique's short name as used in the paper.
	Name() string
	// OnActivate observes a normal activation of (bank, row) during
	// in-window refresh interval `interval` and appends any maintenance
	// commands to cmds, returning the extended slice.
	OnActivate(bank, row, interval int, cmds []Command) []Command
	// OnRefreshInterval observes the end of in-window refresh interval
	// `interval` (just before the auto-refresh command) and appends any
	// maintenance commands.
	OnRefreshInterval(interval int, cmds []Command) []Command
	// OnNewWindow tells the mitigation a refresh window completed;
	// window-scoped state (history tables, counters) is cleared.
	OnNewWindow()
	// Reset restores the mitigation to its initial state, including its
	// PRNG, so a simulation can be replayed.
	Reset()
	// TableBytesPerBank reports the per-bank storage requirement in
	// bytes (Fig. 4's x-axis). Stateless techniques report 0.
	TableBytesPerBank() int
}

// FieldBits returns the width of a hardware field holding values up to
// v: v's bit length, at least 1. Counter-based techniques size their
// tables with it.
func FieldBits(v uint32) int { return max(bits.Len32(v), 1) }

// Escalation is implemented by every technique to report whether its
// per-victim protection intensifies as an attack proceeds. Counter-based
// techniques escalate to a deterministic trigger, ProHit promotes tracked
// victims toward a guaranteed refresh, and TiVaPRoMi's weights ramp with
// time; PARA and MRLoc apply the same static base probability to the
// 100,000th hammering activation as to the first. Son et al. [17] showed
// that such non-escalating schemes are vulnerable to scheduled
// multi-aggressor patterns — the basis of Table III's "vulnerable" marks
// for PARA and MRLoc.
type Escalation interface {
	// EscalatesUnderAttack reports whether sustained hammering of one
	// victim raises the per-activation protection probability.
	EscalatesUnderAttack() bool
}

// CycleModel is implemented by mitigations whose processing latency per
// observed command is known (Table II). Values are clock cycles at the
// memory interface frequency.
type CycleModel interface {
	// ActCycles is the FSM loop length after an observed act command.
	ActCycles() int
	// RefCycles is the FSM loop length after an observed ref command.
	RefCycles() int
}

// StateInjectable is implemented by mitigations whose internal SRAM state
// (history tables, counter tables) can be corrupted for fault-injection
// studies. An injection models a single-event upset: one bit of one live
// state element flips. Implementations must mask flipped fields to their
// hardware widths so a corrupted mitigation degrades — misses victims,
// triggers spuriously — but never emits an out-of-range command; address
// decoders bound what a real SRAM fault can express.
type StateInjectable interface {
	// InjectStateFault flips one random bit of live mitigation state,
	// drawing all randomness from src. It reports whether any state was
	// modified (techniques with no live entries at the moment of
	// injection return false).
	InjectStateFault(src rng.Source) bool
}

// RandSettable is implemented by probabilistic mitigations whose decision
// entropy can be rerouted for fault-injection studies (stuck, biased or
// periodic LFSR output). Passing nil restores the built-in generator.
// Reset must preserve an installed override — a hardware RNG fault does
// not heal on state reset — but reseed it so replays stay deterministic.
type RandSettable interface {
	SetRandSource(src rng.Source)
}

// Target describes the protected device to a mitigation factory.
type Target struct {
	// Banks, RowsPerBank and RefInt mirror the dram.Params structure.
	Banks       int
	RowsPerBank int
	RefInt      int
	// FlipThreshold is the Row-Hammer threshold the mitigation must
	// defend (139 K in the paper); counter-based techniques derive their
	// trigger thresholds from it.
	FlipThreshold uint32
}

// Factory builds a fresh Mitigator for a target device; seed drives the
// mitigation's internal PRNG.
type Factory func(t Target, seed uint64) Mitigator

// Sizer returns, in closed form, the per-bank table bytes of the
// Mitigator its technique's Factory builds for t: the design's storage,
// known without building (and allocating) any state.
type Sizer func(t Target) int

type technique struct {
	factory Factory
	size    Sizer
}

var registry = map[string]technique{}

// Register adds a named factory with its sizer. It panics on duplicates;
// registration happens at init time and a collision is a programming
// error.
func Register(name string, f Factory, size Sizer) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("mitigation: duplicate registration of %q", name))
	}
	registry[name] = technique{f, size}
}

// Lookup returns the factory for name, or an error listing the known names.
func Lookup(name string) (Factory, error) {
	t, err := lookup(name)
	return t.factory, err
}

// TableBytes returns the per-bank table bytes of technique name on t,
// from its registered Sizer.
func TableBytes(name string, t Target) (int, error) {
	tech, err := lookup(name)
	if err != nil {
		return 0, err
	}
	return tech.size(t), nil
}

func lookup(name string) (technique, error) {
	t, ok := registry[name]
	if !ok {
		return technique{}, fmt.Errorf("mitigation: unknown technique %q (known: %v)", name, Names())
	}
	return t, nil
}

// Names returns the registered technique names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
