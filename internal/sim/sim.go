// Package sim is the experiment harness: it wires workload, attacker,
// memory controller, DRAM device and a mitigation together and measures
// the quantities the paper reports — activation overhead, false-positive
// rate, bit flips, table storage — plus the flooding and vulnerability
// probes of Section IV.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"

	"tivapromi/internal/bitset"
	"tivapromi/internal/dram"
	"tivapromi/internal/faults"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	_ "tivapromi/internal/mitigation/all" // register all techniques
	"tivapromi/internal/obs"
	"tivapromi/internal/rng"
	"tivapromi/internal/stats"
	"tivapromi/internal/workload"
)

// PolicyKind selects the device refresh-address policy (Section IV
// evaluates all four).
type PolicyKind int

const (
	// PolicyNeighbors refreshes contiguous address blocks (the paper's
	// assumption).
	PolicyNeighbors PolicyKind = iota
	// PolicyRemapped is neighbors with a few spare-row replacements.
	PolicyRemapped
	// PolicyRandom refreshes a fresh random permutation every window.
	PolicyRandom
	// PolicyMaskedCounter XORs the interval counter with a mask.
	PolicyMaskedCounter
)

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	switch p {
	case PolicyNeighbors:
		return "neighbors"
	case PolicyRemapped:
		return "neighbors-remapped"
	case PolicyRandom:
		return "random"
	case PolicyMaskedCounter:
		return "counter+mask"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// Policies lists all refresh policies for sweep experiments.
func Policies() []PolicyKind {
	return []PolicyKind{PolicyNeighbors, PolicyRemapped, PolicyRandom, PolicyMaskedCounter}
}

// Config describes one simulation run.
type Config struct {
	// Params is the device configuration.
	Params dram.Params
	// Policy selects the refresh-address policy.
	Policy PolicyKind
	// Windows is the number of refresh windows to simulate.
	Windows int
	// AttackBanks are the banks under attack (empty disables the
	// attacker).
	AttackBanks []int
	// MinAggressors/MaxAggressors set the attacker's ramp (1→20 in the
	// paper).
	MinAggressors int
	MaxAggressors int
	// AttackShare is the attacker's fraction of the memory access stream
	// (its cache-flushing core competes with three workload cores).
	AttackShare float64
	// RemapSwaps > 0 installs that many random logical→physical spare-row
	// swaps on the device, the scenario that defeats victim-addressed
	// refreshes.
	RemapSwaps int
	// Seed drives all randomness (workload, attacker, mitigation, policy).
	Seed uint64
	// Factory, when non-nil, overrides the registry lookup — used by
	// ablation studies to run techniques with non-default table sizes or
	// probabilities. It is excluded from checkpoint fingerprints; set
	// FactoryLabel when a factory-driven sweep should be resumable.
	Factory mitigation.Factory `json:"-"`
	// FactoryLabel names a custom Factory for checkpoint fingerprinting.
	// Configs with a Factory but no label are never served from a
	// checkpoint (the runner cannot know two closures are equal).
	FactoryLabel string
	// Fault optionally injects hardware faults into the run (mitigation
	// SRAM upsets, RNG degradation, command-path losses, weak cells).
	// The zero value injects nothing.
	Fault faults.Plan
}

// DefaultConfig returns the standard mixed-load-plus-attacker setup on the
// scaled device.
func DefaultConfig() Config {
	return Config{
		Params:        dram.ScaledParams(),
		Policy:        PolicyNeighbors,
		Windows:       4,
		AttackBanks:   []int{1, 3},
		MinAggressors: 1,
		MaxAggressors: 20,
		AttackShare:   0.65,
		Seed:          1,
	}
}

// Validate reports configuration problems. Harness callers get errors,
// not crashes: every path Run takes (policy selection, fault plan, device
// geometry) is validated here, so invariant panics stay confined to leaf
// packages.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	switch {
	case c.Windows <= 0:
		return fmt.Errorf("sim: Windows = %d", c.Windows)
	case math.IsNaN(c.AttackShare) || c.AttackShare < 0 || c.AttackShare > 1:
		return fmt.Errorf("sim: AttackShare = %v out of [0,1]", c.AttackShare)
	case c.Policy < PolicyNeighbors || c.Policy > PolicyMaskedCounter:
		return fmt.Errorf("sim: unknown policy %v", c.Policy)
	}
	for _, b := range c.AttackBanks {
		if b < 0 || b >= c.Params.TotalBanks() {
			return fmt.Errorf("sim: attack bank %d out of range", b)
		}
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

// Target returns the mitigation.Target for this configuration.
func (c Config) Target() mitigation.Target {
	return mitigation.Target{
		Banks:         c.Params.TotalBanks(),
		RowsPerBank:   c.Params.RowsPerBank,
		RefInt:        c.Params.RefInt,
		FlipThreshold: c.Params.FlipThreshold,
	}
}

// policy builds the device refresh policy; unknown kinds are an error
// (Validate rejects them before Run gets here, so harness callers never
// see a panic for a bad policy value).
func (c Config) policy(seed uint64) (dram.RefreshPolicy, error) {
	switch c.Policy {
	case PolicyNeighbors:
		return dram.NewNeighborPolicy(c.Params), nil
	case PolicyRemapped:
		return dram.NewRemappedPolicy(c.Params, 16, seed), nil
	case PolicyRandom:
		return dram.NewRandomPolicy(c.Params, seed), nil
	case PolicyMaskedCounter:
		return dram.NewMaskedCounterPolicy(c.Params, 0x155), nil
	default:
		return nil, fmt.Errorf("sim: unknown policy %v", c.Policy)
	}
}

// Result is the outcome of one run.
type Result struct {
	Technique string
	Policy    string
	Seed      uint64

	TotalActs    uint64 // normal activations (workload + attacker)
	AttackerActs uint64 // activations caused by attacker accesses
	// ExtraActs counts mitigation-issued activation commands (act_n,
	// one-sided act_n, or a direct victim refresh). This matches the
	// paper's metric: an act_n occupies one maintenance-command slot in
	// the controller schedule even though the DRAM restores both
	// neighbors inside it (a consistency check against the paper's PARA
	// overhead of 0.1% at p = 9.8e-4 confirms commands, not individual
	// row activations, are counted).
	ExtraActs uint64
	FalseActs uint64 // extra commands not protecting a real victim

	OverheadPct float64 // 100 * ExtraActs / TotalActs
	FPRPct      float64 // 100 * FalseActs / TotalActs

	Flips      int // successful Row-Hammer bit flips (must be 0 mitigated)
	TableBytes int // per-bank mitigation storage

	AvgActsPerInterval float64
	MaxActsPerInterval uint64

	// Fault observability (zero without an active fault plan).
	InjectedFaults uint64 // applied mitigation-state upsets
	DroppedCmds    uint64 // mitigation commands lost on the command path
	DelayedCmds    uint64 // mitigation commands served one interval late
}

// Run executes one simulation of `technique` (a registry name, or "" for
// an unprotected system).
func Run(cfg Config, technique string) (Result, error) {
	return RunCtx(context.Background(), cfg, technique)
}

// RunCtx is Run with cooperative cancellation: the simulation polls ctx
// every 1024 accesses and returns ctx.Err() when cut short, so a seed
// sweep can be abandoned mid-run without leaking work. At the same
// cadence it ticks the context's Heartbeat, so the hardened runner's
// stall watchdog can tell a wedged run from a slow one.
//
// RunCtx is the one-member group: see RunGroup for the driver.
func RunCtx(ctx context.Context, cfg Config, technique string) (Result, error) {
	res, err := RunGroup(ctx, []Member{{Config: cfg, Technique: technique}})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// Member is one run of a stream-sharing group: a technique under a
// configuration. Cell labels the member's run-attempt spans (a campaign
// passes its cell key); it never affects results.
type Member struct {
	Config    Config
	Technique string
	Cell      string
}

// StreamKey returns cfg reduced to the fields its access stream depends
// on: Params, Windows, AttackBanks, the aggressor ramp, AttackShare and
// Seed. The others — Policy, RemapSwaps, Factory, FactoryLabel and
// Fault — act on the device and the mitigation only, so configurations
// with equal stream keys generate the same accesses and can run as one
// group.
func (c Config) StreamKey() Config {
	c.Policy, c.RemapSwaps = PolicyNeighbors, 0
	c.Factory, c.FactoryLabel = nil, ""
	c.Fault = faults.Plan{}
	return c
}

// RunGroup runs members that share one access stream (equal StreamKeys)
// together. The driver generates the stream once, blockLen accesses at a
// time, chains each block's accesses by bank as it generates them, and
// feeds the block through every member in turn, each serving it one lane
// at a time: a bank's accesses in arrival order, then the next bank's. A
// lane fires the refresh boundaries it has missed only on its first
// access of a new interval, so a bank's whole evolution is a function of
// its own access subsequence and the access index — each member's Result
// equals its solo RunCtx bit for bit, whatever the order the banks are
// served in. Members whose stream keys differ are a permanent error.
//
// Members that can take their run from another member ride it instead
// of being simulated on lanes of their own (see Ride): a mirror's
// devices ride its host's lanes, and a certified rider takes its host's
// Result once its command-path faults are shown never to fire, or runs
// live in a second pass.
//
// The driver polls ctx and ticks the context's Heartbeat once per block.
func RunGroup(ctx context.Context, members []Member) ([]Result, error) {
	out, _, err := runGroup(ctx, members)
	return out, err
}

// DrainStream generates cfg's full access stream without servicing any
// of it — the trace-generation stage in isolation: the group driver with
// no members, over a source alone (no lanes, devices or mitigation are
// built). Returns the number of accesses generated.
func DrainStream(ctx context.Context, cfg Config) (uint64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, permanent(err)
	}
	src, err := newSource(cfg)
	if err != nil {
		return 0, err
	}
	if err := src.drive(ctx, nil); err != nil {
		return 0, err
	}
	return uint64(src.total()), nil
}

// blockLen is the group driver's block: the accesses generated at once
// and serviced by every member before the next block. It is also the
// cadence of the ctx poll and the heartbeat.
const blockLen = 1024

// accessBlock holds one block of generated accesses in SoA form, in
// arrival order, with each bank's accesses chained in arrival order so
// that every member serves the block one bank at a time. The refresh
// interval of an access is not stored: it follows from the access index.
type accessBlock struct {
	bank, row [blockLen]int32
	// next is the block index of the same bank's next access, -1 after
	// the bank's last one in the block.
	next [blockLen]int16
	// runs lists the banks with accesses in the block, in the order of
	// their first access, each with the index its chain starts at.
	runs []bankRun
	// last is per bank: the index of the bank's latest access while fill
	// chains a block, -1 otherwise.
	last []int16
}

// bankRun is where one bank's chain in a block starts.
type bankRun struct {
	bank int32
	head int16
}

func newAccessBlock(banks int) *accessBlock {
	blk := &accessBlock{last: make([]int16, banks)}
	for b := range blk.last {
		blk.last[b] = -1
	}
	return blk
}

// source is a group's shared traffic: the access stream, its length, and
// the per-bank aggressor ground truth every member classifies its extra
// activations against. The refresh timeline is count-based — access i of
// the run belongs to global refresh interval i/api.
type source struct {
	st        *stream
	api       int // accesses per global refresh interval
	intervals int // total refresh intervals (Windows * RefInt)
	// aggRows is the false-positive ground truth, per bank: an extra
	// activation is a true positive when it restores a potential victim
	// of a real aggressor. Dense row bitsets (nil for banks without
	// aggressors) keep the per-command check to one bit probe.
	aggRows []*bitset.Bitset
}

func (src *source) total() int { return src.intervals * src.api }

// runEnv is one member's fully wired simulation: one memctrl.Lane per
// bank (each with its own single-bank device, mitigation instance, fault
// instrumentation and classification hook), fed by the group's source.
// Its mirrors' devices ride the same lanes.
type runEnv struct {
	src       *source
	lanes     []*memctrl.Lane
	laneIv    []int32              // per lane: the interval it was last caught up to
	harnesses []*faults.Harness    // per lane; nil without an active plan
	mit0      mitigation.Mitigator // lane 0's (possibly fault-wrapped) instance
	falseActs []uint64             // per lane
	// sides[0] is the member's own device side, sides[k] its k-th
	// mirror's.
	sides []deviceSide
}

// deviceSide is what one member served by an env owns: a device per
// lane, and its Result's identity fields.
type deviceSide struct {
	devs []*dram.Device
	res  Result
}

// groupPlan is a prepared group: the shared source, the environments of
// the members simulated on lanes of their own, and where every member's
// Result comes from.
type groupPlan struct {
	src   *source
	envs  []*runEnv
	seats []seat // per member
}

// seat places one member: on device side `side` of envs[env] (0 is the
// env's own member, k > 0 its k-th mirror), or, for a certified rider,
// beside its host member.
type seat struct {
	env, side int
	host      int // a certified rider's host member; -1 otherwise
}

// laneSeed derives the per-bank seed for bank b; bank 0 keeps the base
// seed, so single-bank configurations reproduce the unsharded seeding.
func laneSeed(seed uint64, bank int) uint64 {
	return seed + uint64(bank)*0x9e3779b97f4a7c15
}

// prepareGroup validates the members and builds the group's source and
// one runEnv per member simulated on its own lanes: everything that
// determines behavior lives here, shared by RunGroup, DrainStream,
// RecordTrace and ScaleSmoke. Riders are seated on their hosts (see
// seatRiders); a lone member, or a group without a host, has none.
func prepareGroup(members []Member) (*groupPlan, error) {
	if len(members) == 0 {
		return nil, permanent(errors.New("sim: empty group"))
	}
	factories := make([]mitigation.Factory, len(members))
	for i, m := range members {
		if err := m.Config.Validate(); err != nil {
			return nil, permanent(err)
		}
		if i > 0 && !reflect.DeepEqual(m.Config.StreamKey(), members[0].Config.StreamKey()) {
			return nil, permanent(fmt.Errorf("sim: group member %d (%q) does not share member 0's access stream", i, m.Technique))
		}
		factories[i] = m.Config.Factory
		if factories[i] == nil && m.Technique != "" {
			f, err := mitigation.Lookup(m.Technique)
			if err != nil {
				return nil, permanent(err)
			}
			factories[i] = f
		}
	}
	src, err := newSource(members[0].Config)
	if err != nil {
		return nil, err
	}
	hostOf, rides := seatRiders(members)
	g := &groupPlan{src: src, seats: make([]seat, len(members))}
	for i, m := range members {
		if rides[i] != Live {
			if rides[i] == Certified {
				g.seats[i] = seat{env: -1, host: hostOf[i]}
			}
			continue
		}
		var mirrors []Config
		g.seats[i] = seat{env: len(g.envs), host: -1}
		for j := range members {
			if rides[j] == Mirror && hostOf[j] == i {
				mirrors = append(mirrors, members[j].Config)
				g.seats[j] = seat{env: len(g.envs), side: len(mirrors), host: -1}
			}
		}
		env, err := newRunEnv(m.Config, factories[i], src, mirrors)
		if err != nil {
			return nil, err
		}
		g.envs = append(g.envs, env)
	}
	return g, nil
}

// newSource builds the shared traffic of every configuration with cfg's
// stream key.
func newSource(cfg Config) (*source, error) {
	api := memctrl.AccessesPerInterval(cfg.Params)
	st, err := newStream(cfg, api)
	if err != nil {
		return nil, err
	}
	banks, rpb := cfg.Params.TotalBanks(), cfg.Params.RowsPerBank
	aggRows := make([]*bitset.Bitset, banks)
	if st.att != nil {
		st.att.EachAggressor(func(bank, row int) {
			if bank < 0 || bank >= banks || row < 0 || row >= rpb {
				return
			}
			if aggRows[bank] == nil {
				aggRows[bank] = bitset.New(rpb)
			}
			aggRows[bank].Set(row)
		})
	}
	return &source{st: st, api: api, intervals: cfg.Windows * cfg.Params.RefInt, aggRows: aggRows}, nil
}

// newRunEnv wires one member: its lanes, devices, mitigation instances
// and fault instrumentation, plus a device per lane for each mirror
// config. factory is nil for an unprotected system.
func newRunEnv(cfg Config, factory mitigation.Factory, src *source, mirrors []Config) (*runEnv, error) {
	banks := cfg.Params.TotalBanks()
	rpb := cfg.Params.RowsPerBank
	laneParams := cfg.Params
	// Each lane models one flat bank: collapse the geometry and pin the
	// state representation to the whole-config decision, so a full-DIMM
	// run's lanes stay sparse (heap O(touched rows)) instead of Auto
	// re-deciding per single-bank population.
	laneParams.Banks = 1
	laneParams.Ranks = 0
	laneParams.BankGroups = 0
	if cfg.Params.Sparse() {
		laneParams.State = dram.StateSparse
	} else {
		laneParams.State = dram.StateDense
	}
	laneTarget := mitigation.Target{
		Banks:         1,
		RowsPerBank:   rpb,
		RefInt:        cfg.Params.RefInt,
		FlipThreshold: cfg.Params.FlipThreshold,
	}
	cfgs := append([]Config{cfg}, mirrors...)
	perms := make([][]int, len(cfgs))
	for k, c := range cfgs {
		if c.RemapSwaps > 0 {
			perms[k] = remapPerm(rpb, c.RemapSwaps, c.Seed)
		}
	}

	env := &runEnv{
		src:       src,
		lanes:     make([]*memctrl.Lane, banks),
		laneIv:    make([]int32, banks),
		harnesses: make([]*faults.Harness, banks),
		falseActs: make([]uint64, banks),
		sides:     make([]deviceSide, len(cfgs)),
	}
	for k := range env.sides {
		env.sides[k].devs = make([]*dram.Device, banks)
	}
	for b := 0; b < banks; b++ {
		env.laneIv[b] = -1
		var ticks []func()
		for k, c := range cfgs {
			dev, tick, err := laneDevice(c, laneParams, perms[k], b)
			if err != nil {
				return nil, err
			}
			env.sides[k].devs[b] = dev
			if tick != nil {
				ticks = append(ticks, tick)
			}
		}
		var mit mitigation.Mitigator
		if factory != nil {
			mit = factory(laneTarget, laneSeed(cfg.Seed, b))
		}
		plan := lanePlan(cfg, b)
		if plan.Active() && mit != nil {
			h := faults.Wrap(mit, plan)
			env.harnesses[b] = h
			mit = h
		}
		lane, err := memctrl.NewLane(memctrl.DefaultConfig(), env.sides[0].devs[b], mit)
		if err != nil {
			return nil, err
		}
		for _, side := range env.sides[1:] {
			if err := lane.AddMirror(side.devs[b]); err != nil {
				return nil, err
			}
		}
		if f := faults.CommandFilter(plan); f != nil {
			lane.SetCommandFilter(f)
		}
		switch len(ticks) {
		case 0:
		case 1:
			lane.SetAccessTick(ticks[0])
		default:
			lane.SetAccessTick(func() {
				for _, tick := range ticks {
					tick()
				}
			})
		}
		bs := src.aggRows[b]
		ctr := &env.falseActs[b]
		lane.SetCommandHook(func(cmd mitigation.Command) {
			protective := false
			switch cmd.Kind {
			case mitigation.ActN, mitigation.ActNOne:
				protective = rowIsAggressor(bs, cmd.Row, rpb)
			case mitigation.RefreshRow:
				protective = rowIsAggressor(bs, cmd.Row-1, rpb) ||
					rowIsAggressor(bs, cmd.Row+1, rpb)
			}
			if !protective {
				*ctr++
			}
		})
		env.lanes[b] = lane
		if b == 0 {
			env.mit0 = mit
		}
	}
	for k, c := range cfgs {
		env.sides[k].res = Result{
			Technique: techniqueName(env.mit0),
			Policy:    env.sides[k].devs[0].Policy().Name(),
			Seed:      c.Seed,
		}
	}
	return env, nil
}

// laneDevice builds cfg's single-bank device for lane b: its own refresh
// policy instance, seeded with the base seed so all banks refresh the
// same rows each interval, exactly as one shared multi-bank device would;
// the row remap perm (nil for none); and, under a WeakCells plan, the
// injector the lane ticks before every access (nil otherwise).
func laneDevice(cfg Config, p dram.Params, perm []int, b int) (*dram.Device, func(), error) {
	pol, err := cfg.policy(cfg.Seed)
	if err != nil {
		return nil, nil, permanent(err)
	}
	dev, err := dram.New(p, pol)
	if err != nil {
		return nil, nil, permanent(err)
	}
	if perm != nil {
		if err := dev.SetRowRemap(perm); err != nil {
			return nil, nil, err
		}
	}
	return dev, faults.WeakCellInjector(lanePlan(cfg, b), dev), nil
}

// lanePlan derives lane b's fault plan from cfg's: a per-seed campaign,
// so every seed of a sweep sees an independent but reproducible fault
// stream, with the bank mixed in, so banks see independent streams too.
func lanePlan(cfg Config, b int) faults.Plan {
	plan := cfg.Fault
	plan.Seed = laneSeed(cfg.Fault.Seed^(cfg.Seed*0x9e3779b97f4a7c15), b)
	return plan
}

// rowIsAggressor probes the per-bank ground-truth bitset; neighbor probes
// that fall off the device are non-members by construction.
func rowIsAggressor(bs *bitset.Bitset, row, rpb int) bool {
	return bs != nil && row >= 0 && row < rpb && bs.Get(row)
}

// drive generates the whole stream block by block and services each
// block through every member (see RunGroup); with no members it only
// generates.
func (src *source) drive(ctx context.Context, envs []*runEnv) error {
	hb := HeartbeatFrom(ctx)
	blk := newAccessBlock(len(src.aggRows)) // aggRows has one entry per bank
	total := src.total()
	for base := 0; base < total; base += blockLen {
		if err := ctx.Err(); err != nil {
			return err
		}
		if hb != nil {
			hb.Tick()
		}
		n := min(blockLen, total-base)
		src.st.fill(blk, n)
		metrics := obs.MetricsEnabled()
		for _, e := range envs {
			e.serve(blk, base)
			if metrics {
				e.flushAccesses()
			}
		}
	}
	for _, e := range envs {
		e.finish()
	}
	return nil
}

// serve feeds blk, whose first access is access base of the run, to the
// member's lanes one lane at a time, each following its bank's chain. A
// lane's state evolves only from its own accesses and refresh boundaries
// (see memctrl.Lane), and every other piece of a member's state is per
// lane too, so serving the block bank by bank is exactly serving it in
// arrival order, while each lane's device and mitigation state stays hot
// for a whole run of accesses. The laneIv cursor gates CatchUp: a lane
// catches up only on its first access at or past the block index where
// its next interval starts.
func (e *runEnv) serve(blk *accessBlock, base int) {
	api := e.src.api
	lanes, laneIv := e.lanes, e.laneIv
	for _, r := range blk.runs {
		l, cur := lanes[r.bank], laneIv[r.bank]
		brk := int(cur+1)*api - base
		for j := int(r.head); j >= 0; j = int(blk.next[j&(blockLen-1)]) {
			if j >= brk {
				cur = int32((base + j) / api)
				l.CatchUp(int(cur))
				brk = int(cur+1)*api - base
			}
			l.Access(blk.row[j&(blockLen-1)])
		}
		laneIv[r.bank] = cur
	}
}

// finish fires every lane's outstanding refresh boundaries so all lanes
// end the run at the same interval count.
func (e *runEnv) finish() {
	for _, l := range e.lanes {
		l.CatchUp(e.src.intervals)
	}
}

// collect merges device side k's per-lane devices and the lanes'
// controllers into that member's Result, in bank order. The per-bank interval statistics merge exactly: each lane's
// device counts one bank-interval per boundary, so the sums, counts, and
// maxima add up to what one multi-bank device would have recorded.
func (e *runEnv) collect(k int) Result {
	side := e.sides[k]
	res := side.res
	var sumIA, seenIA uint64
	for b, l := range e.lanes {
		dev := side.devs[b]
		ds := dev.Stats()
		cs := l.Stats()
		res.TotalActs += ds.Activates
		res.ExtraActs += cs.ActN + cs.ActNOne + cs.RefreshRow
		res.Flips += int(dev.FlipCount())
		if ds.MaxActsInIntv > res.MaxActsPerInterval {
			res.MaxActsPerInterval = ds.MaxActsInIntv
		}
		sumIA += ds.IntervalActsSum
		seenIA += ds.IntervalActsSeen
		res.DroppedCmds += cs.DroppedCmds
		res.DelayedCmds += cs.DelayedCmds
		if h := e.harnesses[b]; h != nil {
			res.InjectedFaults += h.Injected
		}
		res.FalseActs += e.falseActs[b]
	}
	res.AttackerActs = e.src.st.k.Attacks() // attacker accesses are all misses
	if res.TotalActs > 0 {
		res.OverheadPct = 100 * float64(res.ExtraActs) / float64(res.TotalActs)
		res.FPRPct = 100 * float64(res.FalseActs) / float64(res.TotalActs)
	}
	if e.mit0 != nil {
		res.TableBytes = e.mit0.TableBytesPerBank()
	}
	if seenIA > 0 {
		res.AvgActsPerInterval = float64(sumIA) / float64(seenIA)
	}
	if k == 0 && obs.MetricsEnabled() {
		// Per-run flush of the scale metrics: one pass over the lanes a
		// run already makes, so no per-access cost anywhere. Mirrors add
		// nothing: their accesses and activations are the lanes' own. Acts come
		// from the device counters; sparse-state and touched-row gauges
		// are high-water marks across every device this process ran.
		var acts uint64
		var stateBytes, touched int
		e.flushAccesses()
		for _, l := range e.lanes {
			acts += l.Device().Stats().Activates
			stateBytes += l.Device().StateBytes()
			touched += l.Device().TouchedRows()
		}
		obs.Acts.Add(acts)
		obs.SparseStateBytes.SetMax(int64(stateBytes))
		obs.TouchedRows.SetMax(int64(touched))
	}
	return res
}

// flushAccesses adds the accesses the member's lanes serviced since the
// last flush to the access metric: one atomic add per member per block,
// and once more at collect so the total stays exact.
func (e *runEnv) flushAccesses() {
	var d uint64
	for _, l := range e.lanes {
		d += l.TakeAccesses()
	}
	if d != 0 {
		obs.Accesses.Add(d)
	}
}

func techniqueName(m mitigation.Mitigator) string {
	if m == nil {
		return "none"
	}
	return m.Name()
}

// stream is the group's traffic: workload.Kernel's interleave of the
// SPEC-like mix with the attacker at the configured share. Generation
// reads only the kernel's own RNGs and generators — never device or lane
// state — so every member of a group, DrainStream and RecordTrace all
// consume this one sequence.
type stream struct {
	att *workload.Attacker // nil without an attacker
	// k counts the attacker's accesses as it generates them; every
	// generated access is serviced (the run length is a fixed access
	// count), so that count is exact.
	k *workload.Kernel
}

func newStream(cfg Config, api int) (*stream, error) {
	st := &stream{}
	if len(cfg.AttackBanks) > 0 && cfg.AttackShare > 0 {
		// Plan the ramp over the attacker's exact share of the run's
		// fixed access count, so the ramp completes as the run ends.
		planned := uint64(float64(cfg.Windows*cfg.Params.RefInt*api) * cfg.AttackShare)
		if planned == 0 {
			planned = 1
		}
		att, err := workload.NewAttacker(workload.AttackerConfig{
			TargetBanks:   cfg.AttackBanks,
			RowsPerBank:   cfg.Params.RowsPerBank,
			MinAggressors: cfg.MinAggressors,
			MaxAggressors: cfg.MaxAggressors,
			// Dwell on each victim for roughly a full refresh window of
			// per-bank hammering, whatever the window length, so the
			// attack stays flip-capable at any simulation scale.
			BurstAccesses:   uint64(cfg.Params.RefInt) * 64,
			PlannedAccesses: planned,
			Seed:            cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		st.att = att
	}
	st.k = workload.NewKernel(cfg.Params.TotalBanks(), cfg.Params.RowsPerBank, cfg.Seed,
		blockLen, st.att, cfg.AttackShare, cfg.Seed^0xd21ce)
	return st, nil
}

// fill generates the next n accesses into blk and chains them per bank:
// the block is regrouped by bank once, for all members. Block indices
// are below blockLen, so masking them with blockLen-1 changes nothing
// but drops the bounds checks.
func (st *stream) fill(blk *accessBlock, n int) {
	st.k.Fill(blk.bank[:n], blk.row[:n])
	last, runs := blk.last, blk.runs[:0]
	for j, b := range blk.bank[:n] {
		if p := last[b]; p < 0 {
			runs = append(runs, bankRun{bank: b, head: int16(j)})
		} else {
			blk.next[p&(blockLen-1)] = int16(j)
		}
		last[b] = int16(j)
	}
	for _, r := range runs {
		blk.next[last[r.bank]&(blockLen-1)] = -1
		last[r.bank] = -1
	}
	blk.runs = runs
}

func remapPerm(rows, swaps int, seed uint64) []int {
	perm := make([]int, rows)
	for i := range perm {
		perm[i] = i
	}
	src := rng.NewXorShift64Star(seed ^ 0x2e3a9)
	for i := 0; i < swaps; i++ {
		a, b := rng.Intn(src, rows), rng.Intn(src, rows)
		perm[a], perm[b] = perm[b], perm[a]
	}
	return perm
}

// Summary aggregates a technique's results across seeds (the µ±σ columns
// of Table III).
type Summary struct {
	Technique   string
	Runs        []Result
	Overhead    stats.Welford // percent
	FPR         stats.Welford // percent
	TotalFlips  int
	TableBytes  int
	TotalActs   uint64
	ExtraActs   uint64
	MaxActsIntv uint64
	// Fault observability totals (zero without an active fault plan).
	InjectedFaults uint64
	DroppedCmds    uint64
	DelayedCmds    uint64
}

// Summarize aggregates per-seed results into a Summary. The aggregation
// order is the slice order, so re-aggregating checkpointed results
// reproduces the original summary bit-for-bit.
func Summarize(results []Result) Summary {
	if len(results) == 0 {
		return Summary{}
	}
	s := Summary{Technique: results[0].Technique, Runs: results}
	for _, r := range results {
		s.Overhead.Add(r.OverheadPct)
		s.FPR.Add(r.FPRPct)
		s.TotalFlips += r.Flips
		s.TableBytes = r.TableBytes
		s.TotalActs += r.TotalActs
		s.ExtraActs += r.ExtraActs
		if r.MaxActsPerInterval > s.MaxActsIntv {
			s.MaxActsIntv = r.MaxActsPerInterval
		}
		s.InjectedFaults += r.InjectedFaults
		s.DroppedCmds += r.DroppedCmds
		s.DelayedCmds += r.DelayedCmds
	}
	return s
}

// RunSeeds executes Run for every seed (in a bounded worker pool) and
// aggregates. It fails on the first per-seed error; use RunSeedsCtx for
// partial results, cancellation, deadlines and retries.
func RunSeeds(cfg Config, technique string, seeds []uint64) (Summary, error) {
	sum, runErrs, err := RunSeedsCtx(context.Background(), DefaultRunnerConfig(), cfg, technique, seeds)
	if err != nil {
		return Summary{}, err
	}
	if len(runErrs) > 0 {
		return Summary{}, runErrs[0]
	}
	return sum, nil
}

// Seeds returns n deterministic seeds derived from base.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)*0x9e3779b9
	}
	return out
}

// TechniqueNames returns the paper's nine techniques in Table III order.
func TechniqueNames() []string {
	return []string{"ProHit", "MRLoc", "PARA", "TWiCe", "CRA",
		"CaPRoMi", "LiPRoMi", "LoPRoMi", "LoLiPRoMi"}
}
