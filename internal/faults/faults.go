// Package faults is a deterministic, seed-driven fault-injection
// framework for the simulator. The paper's mitigations live in
// memory-controller SRAM and draw entropy from hardware LFSRs; this
// package asks what happens when those structures themselves fail:
//
//   - mitigation-state corruption — bit flips in TiVaPRoMi history and
//     counter tables and in TWiCe/CRA counters, modeling SRAM
//     single-event upsets (via mitigation.StateInjectable);
//   - RNG degradation — stuck-at, biased and short-period LFSR output on
//     the hardware Bernoulli path (via mitigation.RandSettable and the
//     fault sources in internal/rng), the Loaded Dice non-selection
//     scenario;
//   - command-path faults — dropped or delayed neighbor-refresh act_n
//     commands between controller and device (via memctrl's command
//     filter), the QPRAC imperfect-service scenario;
//   - weak cells — retention-degraded DRAM rows that flip below the
//     provisioned threshold (via dram.Device.InjectDisturbance);
//   - trace-stream corruption — bit rot on recorded activation traces
//     (see CorruptingReader), exercising internal/trace's hardening.
//
// Every injector draws all randomness from a Plan's seed, so a
// degradation curve is bit-reproducible: same seed, same faults, same
// table.
package faults

import (
	"fmt"
	"math"

	"tivapromi/internal/dram"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/rng"
)

// Model identifies one fault model.
type Model int

const (
	// None injects nothing (the baseline row of a degradation table).
	None Model = iota
	// StateSEU flips one bit of live mitigation SRAM state with
	// probability Rate per observed act/ref command.
	StateSEU
	// StuckRNG replaces the decision LFSR with a stuck-at-ones register:
	// probabilistic protection silently stops (non-selection). Rate > 0
	// arms the fault; the rate itself has no further meaning.
	StuckRNG
	// BiasedRNG forces the comparator's high bits on a fraction Rate of
	// the decision draws, suppressing triggers intermittently.
	BiasedRNG
	// PeriodicRNG collapses the LFSR into a cycle of length
	// max(2, round(1/Rate)) — a feedback-tap fault an attacker can
	// phase-lock to.
	PeriodicRNG
	// DropActN discards each mitigation command with probability Rate
	// before it reaches the device.
	DropActN
	// DelayActN postpones each mitigation command with probability Rate
	// to the next refresh-interval boundary.
	DelayActN
	// WeakCells bumps the disturbance of a random row by half the flip
	// threshold with probability Rate per memory access, modeling
	// retention-weakened cells that flip below the provisioned threshold.
	WeakCells
)

// String implements fmt.Stringer with the names used in report tables.
func (m Model) String() string {
	switch m {
	case None:
		return "none"
	case StateSEU:
		return "state-seu"
	case StuckRNG:
		return "stuck-rng"
	case BiasedRNG:
		return "biased-rng"
	case PeriodicRNG:
		return "periodic-rng"
	case DropActN:
		return "drop-actn"
	case DelayActN:
		return "delay-actn"
	case WeakCells:
		return "weak-cells"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Models returns every injecting fault model (None excluded), in
// presentation order.
func Models() []Model {
	return []Model{StateSEU, StuckRNG, BiasedRNG, PeriodicRNG, DropActN, DelayActN, WeakCells}
}

// ParseModel resolves a model by its String name.
func ParseModel(name string) (Model, error) {
	for _, m := range append([]Model{None}, Models()...) {
		if m.String() == name {
			return m, nil
		}
	}
	return None, fmt.Errorf("faults: unknown model %q", name)
}

// Plan describes one fault campaign. The zero value injects nothing.
type Plan struct {
	// Model selects the fault mechanism.
	Model Model
	// Rate is the per-event fault probability (per observed command for
	// StateSEU, per decision draw for BiasedRNG, per mitigation command
	// for Drop/DelayActN, per access for WeakCells; see the Model docs
	// for the two models that interpret it differently).
	Rate float64
	// Seed drives every injector decision. Runs with equal plans and
	// equal simulation seeds are bit-identical.
	Seed uint64
}

// Active reports whether the plan injects anything.
func (p Plan) Active() bool { return p.Model != None && p.Rate > 0 }

// Validate reports malformed plans.
func (p Plan) Validate() error {
	if math.IsNaN(p.Rate) || p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("faults: rate %v out of [0,1]", p.Rate)
	}
	if _, err := ParseModel(p.Model.String()); err != nil {
		return err
	}
	return nil
}

// rate32 converts a probability to 32-bit fixed point for gate draws.
func rate32(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return 1 << 32
	}
	return uint64(rate * float64(uint64(1)<<32))
}

// biasMask is the OR mask BiasedRNG forces into decision draws: the top
// half of a 24-bit comparator window, far above any TiVaPRoMi weight, so
// a biased draw cannot trigger.
const biasMask = uint64(0xfff000)

// degradedSource builds the RNG-fault source for a plan, or nil when the
// plan carries no RNG model.
func degradedSource(p Plan) rng.Source {
	if !p.Active() {
		return nil
	}
	switch p.Model {
	case StuckRNG:
		return rng.NewStuckSource(^uint64(0))
	case BiasedRNG:
		return rng.NewBiasedSource(rng.NewLFSR32(p.Seed^0xdeb1a5), biasMask, p.Rate, p.Seed)
	case PeriodicRNG:
		period := 2
		if p.Rate > 0 && 1/p.Rate > 2 {
			period = int(1/p.Rate + 0.5)
		}
		return rng.NewPeriodicSource(rng.NewLFSR32(p.Seed^0x9e210d), period)
	default:
		return nil
	}
}

// Harness wraps a Mitigator and applies a Plan's state and RNG faults
// while the wrapped technique runs. Command-path and device faults don't
// flow through the mitigation driver protocol; build those with
// CommandFilter and WeakCellInjector instead. The Harness is not safe for
// concurrent use (neither is any Mitigator).
type Harness struct {
	inner mitigation.Mitigator
	plan  Plan
	gate  *rng.XorShift64Star
	inj   *rng.XorShift64Star
	r32   uint64
	// Injected counts applied state faults.
	Injected uint64
}

// Wrap builds a Harness over m. RNG-degradation plans install the
// degraded source immediately when the technique supports it
// (mitigation.RandSettable); techniques without the targeted structure
// pass through unchanged — their degradation curve is flat by
// construction, which is itself a result.
func Wrap(m mitigation.Mitigator, plan Plan) *Harness {
	h := &Harness{inner: m, plan: plan}
	h.rearm()
	return h
}

// rearm (re)builds the injector generators and re-installs RNG faults.
func (h *Harness) rearm() {
	h.gate = rng.NewXorShift64Star(h.plan.Seed ^ 0xfa017)
	h.inj = rng.NewXorShift64Star(h.plan.Seed ^ 0x1f11b)
	h.r32 = 0
	if h.plan.Model == StateSEU {
		h.r32 = rate32(h.plan.Rate)
	}
	if src := degradedSource(h.plan); src != nil {
		if rs, ok := h.inner.(mitigation.RandSettable); ok {
			rs.SetRandSource(src)
		}
	}
}

// Inner returns the wrapped mitigation.
func (h *Harness) Inner() mitigation.Mitigator { return h.inner }

// maybeInject fires a state fault with the plan's per-event probability.
func (h *Harness) maybeInject() {
	if h.r32 == 0 || h.gate.Uint64()&0xffffffff >= h.r32 {
		return
	}
	if si, ok := h.inner.(mitigation.StateInjectable); ok {
		if si.InjectStateFault(h.inj) {
			h.Injected++
		}
	}
}

// Name implements mitigation.Mitigator, delegating so results aggregate
// under the wrapped technique's name.
func (h *Harness) Name() string { return h.inner.Name() }

// OnActivate implements mitigation.Mitigator.
func (h *Harness) OnActivate(bank, row, interval int, cmds []mitigation.Command) []mitigation.Command {
	h.maybeInject()
	return h.inner.OnActivate(bank, row, interval, cmds)
}

// OnRefreshInterval implements mitigation.Mitigator.
func (h *Harness) OnRefreshInterval(interval int, cmds []mitigation.Command) []mitigation.Command {
	h.maybeInject()
	return h.inner.OnRefreshInterval(interval, cmds)
}

// OnNewWindow implements mitigation.Mitigator.
func (h *Harness) OnNewWindow() { h.inner.OnNewWindow() }

// Reset implements mitigation.Mitigator: the wrapped technique resets
// (which reseeds a persisting RNG override) and the injector gates
// restart, so a reset harness replays bit-identically.
func (h *Harness) Reset() {
	h.inner.Reset()
	h.Injected = 0
	h.rearm()
}

// TableBytesPerBank implements mitigation.Mitigator.
func (h *Harness) TableBytesPerBank() int { return h.inner.TableBytesPerBank() }

// CommandFilter returns the memctrl fault filter realizing a command-path
// plan (DropActN/DelayActN), or nil for every other model.
func CommandFilter(plan Plan) func(mitigation.Command) memctrl.Disposition {
	verdict, fires := commandGate(plan)
	if fires == nil {
		return nil
	}
	return func(mitigation.Command) memctrl.Disposition {
		if fires() {
			return verdict
		}
		return memctrl.Deliver
	}
}

// CommandFaultWithin reports whether a command-path plan's filter faults
// any of the first n commands it sees. It replays CommandFilter's own
// draws, so false means the filter delivers those n commands — a run
// whose command path carries n commands is then the healthy run. Every
// other model faults nothing on the command path.
func CommandFaultWithin(plan Plan, n uint64) bool {
	_, fires := commandGate(plan)
	if fires == nil {
		return false
	}
	for ; n > 0; n-- {
		if fires() {
			return true
		}
	}
	return false
}

// IsCommandPath reports whether the plan is an active command-path plan
// (DropActN or DelayActN).
func (p Plan) IsCommandPath() bool {
	return p.Active() && (p.Model == DropActN || p.Model == DelayActN)
}

// commandGate is the command path's fault gate: the verdict a firing
// draw hands down, and the draw itself, one per command. It is nil for
// every model but DropActN and DelayActN.
func commandGate(plan Plan) (memctrl.Disposition, func() bool) {
	if !plan.IsCommandPath() {
		return memctrl.Deliver, nil
	}
	verdict := memctrl.Drop
	if plan.Model == DelayActN {
		verdict = memctrl.Delay
	}
	gate := rng.NewXorShift64Star(plan.Seed ^ 0xc0de)
	r := rate32(plan.Rate)
	return verdict, func() bool { return gate.Uint64()&0xffffffff < r }
}

// WeakCellInjector returns a per-access device injector realizing a
// WeakCells plan, or nil for every other model. Each firing bumps a
// uniformly chosen row of a uniformly chosen bank by half the flip
// threshold — that row now flips after half the nominal hammer count.
func WeakCellInjector(plan Plan, dev *dram.Device) func() {
	if !plan.Active() || plan.Model != WeakCells {
		return nil
	}
	p := dev.Params()
	gate := rng.NewXorShift64Star(plan.Seed ^ 0x3eacce)
	pick := rng.NewXorShift64Star(plan.Seed ^ 0x77ea)
	r := rate32(plan.Rate)
	bump := p.FlipThreshold / 2
	if bump == 0 {
		bump = 1
	}
	return func() {
		if gate.Uint64()&0xffffffff < r {
			dev.InjectDisturbance(rng.Intn(pick, p.TotalBanks()), rng.Intn(pick, p.RowsPerBank), bump)
		}
	}
}
