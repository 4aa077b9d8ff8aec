package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"tivapromi/internal/dram"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/sim"
	"tivapromi/internal/trace"
	"tivapromi/internal/workload"
)

// techniques are the paper's nine techniques in Table III order.
var techniques = sim.TechniqueNames()

// legReps is how often the traced pass repeats each isolated stage leg.
const legReps = 5

// simGeom is one geometry the library path runs on.
type simGeom struct {
	name    string
	params  dram.Params
	windows int
	seeds   int
	// stages times the mitigation and controller legs on this geometry
	// and reconciles the legs against RunCtx per technique.
	stages bool
}

func (g simGeom) config(seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Params = g.params
	cfg.Windows = g.windows
	cfg.Seed = seed
	return cfg
}

// directGeoms are sim-direct's two working sets: a dense scaled device
// whose state fits in cache, and a sparse full DIMM whose does not.
func directGeoms() []simGeom {
	return []simGeom{
		{name: "scaled", params: dram.ScaledParams(), windows: 8, seeds: 5, stages: true},
		{name: "fulldimm", params: dram.FullDIMMParams(), windows: 2, seeds: 2},
	}
}

// techLabel names a technique in keys and metric names.
func techLabel(t string) string {
	if t == "" {
		return "none"
	}
	return t
}

// actStream is a recorded activation stream, flattened for replay: an
// interval boundary is a bank of -1.
type actStream struct {
	banks, rows []int32
	acts        uint64
}

// recordActs records cfg's unprotected activation stream through the
// trace recorder and flattens it.
func recordActs(cfg sim.Config) (actStream, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Banks: cfg.Params.TotalBanks(), RowsPerBank: cfg.Params.RowsPerBank, RefInt: cfg.Params.RefInt,
	})
	if err != nil {
		return actStream{}, err
	}
	if err := sim.RecordTrace(cfg, w); err != nil {
		return actStream{}, err
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		return actStream{}, err
	}
	var s actStream
	for {
		ev, err := r.Next()
		if errors.Is(err, io.EOF) {
			return s, nil
		}
		if err != nil {
			return actStream{}, err
		}
		if ev.Kind == trace.KindIntervalEnd {
			s.banks, s.rows = append(s.banks, -1), append(s.rows, 0)
			continue
		}
		s.banks, s.rows = append(s.banks, int32(ev.Bank)), append(s.rows, int32(ev.Row))
		s.acts++
	}
}

// laneParams and laneSeed copy how sim's unexported prepareRun and
// laneSeed (internal/sim/sim.go) build a run's per-bank lanes: one flat
// bank that keeps the whole configuration's dense-or-sparse decision, and
// a mitigation seed per bank. runLegs checks that the copies still agree
// with RunCtx: the DRAM leg must count RunCtx's unprotected flips, and a
// mitigation leg must issue exactly the commands RunCtx executed.
func laneParams(p dram.Params) dram.Params {
	lp := p
	lp.Banks, lp.Ranks, lp.BankGroups = 1, 0, 0
	lp.State = dram.StateDense
	if p.Sparse() {
		lp.State = dram.StateSparse
	}
	return lp
}

func laneSeed(seed uint64, bank int) uint64 {
	return seed + uint64(bank)*0x9e3779b97f4a7c15
}

// rig holds the objects one geometry's isolated legs drive, built as sim
// builds a run's lanes: per bank, a single-bank device and, on the
// stages geometry, one mitigation instance of every technique; plus the
// public controller over the whole device.
type rig struct {
	devs     []*dram.Device
	replayed bool // the devices hold a replayed stream's state
	mits     map[string][]mitigation.Mitigator
	ctrl     *memctrl.Controller
	gen      *workload.Mix
}

func buildRig(g simGeom, seed uint64) (*rig, error) {
	lp := laneParams(g.params)
	r := &rig{devs: make([]*dram.Device, g.params.TotalBanks()), mits: map[string][]mitigation.Mitigator{}}
	for b := range r.devs {
		dev, err := dram.New(lp, dram.NewNeighborPolicy(g.params))
		if err != nil {
			return nil, err
		}
		r.devs[b] = dev
	}
	if !g.stages {
		return r, nil
	}
	target := mitigation.Target{Banks: 1, RowsPerBank: g.params.RowsPerBank, RefInt: g.params.RefInt, FlipThreshold: g.params.FlipThreshold}
	for _, t := range techniques {
		f, err := mitigation.Lookup(t)
		if err != nil {
			return nil, err
		}
		mits := make([]mitigation.Mitigator, len(r.devs))
		for b := range mits {
			mits[b] = f(target, laneSeed(seed, b))
		}
		r.mits[t] = mits
	}
	cdev, err := dram.New(g.params, dram.NewNeighborPolicy(g.params))
	if err != nil {
		return nil, err
	}
	if r.ctrl, err = memctrl.New(memctrl.DefaultConfig(), cdev, nil); err != nil {
		return nil, err
	}
	r.gen = workload.SPECMix(g.params.TotalBanks(), g.params.RowsPerBank, seed)
	return r, nil
}

// buildRigs validates every configuration the workload runs and builds
// each geometry's rig for its first seed.
func buildRigs(geoms []simGeom, seed uint64) ([]*rig, error) {
	rigs := make([]*rig, len(geoms))
	for i, g := range geoms {
		seeds := sim.Seeds(seed, g.seeds)
		for _, s := range seeds {
			if err := g.config(s).Validate(); err != nil {
				return nil, err
			}
		}
		r, err := buildRig(g, seeds[0])
		if err != nil {
			return nil, err
		}
		rigs[i] = r
	}
	return rigs, nil
}

// runSimDirect runs the library path on one goroutine. A round calls
// sim.RunCtx for the unprotected system and every technique on each
// geometry, seeds outermost so that each technique's runs spread over
// the round. Each call starts from a collected heap, so neither its time
// nor the peak RSS depends on when the previous call's garbage happened
// to be collected. At seed 1 the Results must equal golden, and every
// round must reproduce the first. After the rounds the pipeline's stages
// run in isolation on the same stream (see runLegs).
func runSimDirect(ctx context.Context, env *runEnv, geoms []simGeom, golden map[string]json.RawMessage) (*measurement, error) {
	m := &measurement{}
	var rigs []*rig
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if rigs, err = buildRigs(geoms, env.seed); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0))
	}
	all := append([]string{""}, techniques...)
	maxSeeds := 0
	for _, g := range geoms {
		m.tailOps += len(all) * g.seeds
		maxSeeds = max(maxSeeds, g.seeds)
	}
	results := map[string]sim.Result{}
	runNs := map[string][]float64{} // geometry/technique → ns per access of each run
	err := rounds(ctx, env, 1, func(round int) error {
		var wall time.Duration
		for i := 0; i < maxSeeds; i++ {
			for _, g := range geoms {
				if i >= g.seeds {
					continue
				}
				cfg := g.config(sim.Seeds(env.seed, g.seeds)[i])
				n := accessesOf(cfg)
				for _, t := range all {
					runtime.GC()
					c0, t0 := cpuTime(), time.Now()
					res, err := sim.RunCtx(ctx, cfg, t)
					t1, cpu := time.Now(), cpuTime()-c0
					key := fmt.Sprintf("%s/%s/%d", g.name, techLabel(t), i)
					m.attempted++
					if err != nil {
						m.fail("sim-direct: %s: %v", key, err)
						continue
					}
					d := t1.Sub(t0)
					m.ops = append(m.ops, d)
					m.opsCPU += cpu
					m.passCPU += cpu
					wall += d
					m.accesses += n
					runNs[g.name+"/"+techLabel(t)] = append(runNs[g.name+"/"+techLabel(t)], float64(d)/float64(n))
					if round == 0 {
						results[key] = res
						checkGolden(m, golden, key, res)
					} else if res != results[key] {
						m.fail("sim-direct: %s: round %d Result differs from round 0", key, round)
					}
					if env.lay != nil && round == 0 {
						span("bench.runctx", t0, t1, "geometry", g.name, "technique", techLabel(t))
						env.lay.add("sim.run_s", d.Seconds())
						env.lay.add("sim.run_s."+runClass(cfg, t), d.Seconds())
						env.lay.add("sim.runs", 1)
						env.lay.add("sim.accesses", float64(n))
						env.lay.add("sim.acts", float64(res.TotalActs))
						env.lay.add("sim.extra_acts", float64(res.ExtraActs))
						env.lay.add("sim.flips", float64(res.Flips))
					}
				}
			}
		}
		m.walls = append(m.walls, wall)
		return nil
	})
	if err != nil {
		return m, err
	}
	// The legs below hold whole activation streams in memory; the
	// end-to-end peak is the library path's alone.
	m.peakRSS = peakRSSMB()
	if err := runLegs(ctx, env, m, geoms, rigs, results, runNs); err != nil {
		return m, err
	}
	if env.updateGolden {
		raw, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return m, err
		}
		return m, writeGolden("sim-direct.json", append(raw, '\n'))
	}
	return m, nil
}

// checkGolden compares a seed-1 Result against the committed golden
// file (nil golden: nothing to compare against).
func checkGolden(m *measurement, golden map[string]json.RawMessage, key string, res sim.Result) {
	if golden == nil {
		return
	}
	var want bytes.Buffer
	raw, ok := golden[key]
	got, err := json.Marshal(res)
	if err == nil && ok {
		err = json.Compact(&want, raw)
	}
	if !ok || err != nil || !bytes.Equal(got, want.Bytes()) {
		m.fail("sim-direct: %s: Result differs from golden/sim-direct.json", key)
	}
}

// dramLeg replays s into per-bank devices: Activate for every
// activation, AdvanceInterval on every bank at each interval boundary.
// It returns the time taken, and the activations and bit flips the
// devices counted.
func dramLeg(devs []*dram.Device, s actStream) (time.Duration, uint64, uint64) {
	var before, flipsBefore uint64
	for _, dev := range devs {
		before += dev.Stats().Activates
		flipsBefore += dev.FlipCount()
	}
	t0 := time.Now()
	for i, b := range s.banks {
		if b < 0 {
			for _, dev := range devs {
				dev.AdvanceInterval()
			}
			continue
		}
		devs[b].Activate(0, int(s.rows[i]))
	}
	d := time.Since(t0)
	var after, flipsAfter uint64
	for _, dev := range devs {
		after += dev.Stats().Activates
		flipsAfter += dev.FlipCount()
	}
	return d, after - before, flipsAfter - flipsBefore
}

// mitLeg feeds s to per-bank mitigation instances as a lane does:
// OnActivate per activation; OnRefreshInterval on every bank at each
// boundary, and OnNewWindow when the window wraps. Commands are counted,
// not executed. It returns the time taken, the activations observed and
// the commands issued.
func mitLeg(mits []mitigation.Mitigator, s actStream, refInt int) (d time.Duration, observed, commands uint64) {
	cmds := make([]mitigation.Command, 0, 16)
	iv := 0
	t0 := time.Now()
	for i, b := range s.banks {
		if b < 0 {
			for _, mit := range mits {
				cmds = mit.OnRefreshInterval(iv, cmds[:0])
				commands += uint64(len(cmds))
			}
			if iv++; iv == refInt {
				iv = 0
				for _, mit := range mits {
					mit.OnNewWindow()
				}
			}
			continue
		}
		cmds = mits[b].OnActivate(0, int(s.rows[i]), iv, cmds[:0])
		commands += uint64(len(cmds))
		observed++
	}
	return time.Since(t0), observed, commands
}

// minOf returns the smallest of xs.
func minOf(xs []float64) float64 {
	best := math.Inf(1)
	for _, x := range xs {
		best = min(best, x)
	}
	return best
}

// legSamples collects one geometry's leg timings, in ns per access
// (generation, RunCtx) or per activation (DRAM, mitigation), and the
// legs-to-RunCtx ratio of each technique's pairs.
type legSamples struct {
	gen, dram, ctrl []float64
	mit, ratio      map[string][]float64
}

// runLegs times the pipeline's stages in isolation on each geometry's
// first-seed stream: generation (sim.DrainStream), DRAM (the recorded
// activation stream replayed into per-bank dram.Devices) and, on the
// stages geometry, each technique's per-bank Mitigator and the public
// controller over workload.SPECMix. Every leg must see exactly the
// activations RunCtx reported for the unprotected run.
//
// The untraced pass runs each leg once, as that check. The traced pass
// repeats them legReps times, and on the stages geometry times each
// technique's legs right beside one RunCtx of it: the host's speed
// drifts over seconds, so only a legs-to-RunCtx ratio taken within one
// such pair is comparable. It reports the fastest timing of each leg and
// reconciles the median ratio per technique.
func runLegs(ctx context.Context, env *runEnv, m *measurement, geoms []simGeom, rigs []*rig, results map[string]sim.Result, runNs map[string][]float64) error {
	reps := 1
	if env.lay != nil {
		reps = legReps
	}
	all := append([]string{""}, techniques...)
	for gi, g := range geoms {
		cfg := g.config(sim.Seeds(env.seed, g.seeds)[0])
		n := accessesOf(cfg)
		want := results[g.name+"/none/0"]
		stream, err := recordActs(cfg)
		if err != nil {
			return err
		}
		actsPerAccess := float64(stream.acts) / float64(n)
		ls := legSamples{mit: map[string][]float64{}, ratio: map[string][]float64{}}
		// genDram runs the generation and DRAM legs once and returns
		// their cost per access.
		genDram := func(r *rig) (float64, error) {
			g0 := time.Now()
			generated, err := sim.DrainStream(ctx, cfg)
			g1 := time.Now()
			if err != nil {
				return 0, err
			}
			dd, acts, flips := dramLeg(r.devs, stream)
			m.check(acts == want.TotalActs && generated == n,
				"sim-direct: %s: DRAM leg saw %d activations of %d generated accesses, RunCtx %d of %d",
				g.name, acts, generated, want.TotalActs, n)
			if !r.replayed {
				m.check(flips == uint64(want.Flips),
					"sim-direct: %s: DRAM leg counted %d flips, unprotected RunCtx %d: the leg's devices no longer match sim's lanes",
					g.name, flips, want.Flips)
				r.replayed = true
			}
			span("bench.stage.generation", g0, g1, "geometry", g.name)
			span("bench.stage.dram", g1, g1.Add(dd), "geometry", g.name)
			gen, dram := float64(g1.Sub(g0))/float64(n), float64(dd)/float64(stream.acts)
			ls.gen, ls.dram = append(ls.gen, gen), append(ls.dram, dram)
			return gen + dram*actsPerAccess, nil
		}
		for rep := 0; rep < reps; rep++ {
			r := rigs[gi]
			if rep > 0 {
				if r, err = buildRig(g, cfg.Seed); err != nil {
					return err
				}
			}
			if !g.stages || env.lay == nil {
				if _, err := genDram(r); err != nil {
					return err
				}
			}
			if !g.stages {
				continue
			}
			for _, t := range all {
				var legs float64
				if env.lay != nil {
					if legs, err = genDram(r); err != nil {
						return err
					}
				}
				if t != "" {
					t0 := time.Now()
					d, observed, commands := mitLeg(r.mits[t], stream, cfg.Params.RefInt)
					m.check(observed == want.TotalActs,
						"sim-direct: %s: %s leg observed %d activations, RunCtx %d", g.name, t, observed, want.TotalActs)
					// When the technique's commands never reopened a row,
					// its RunCtx mitigations saw exactly this stream, so
					// the leg must issue exactly the commands RunCtx
					// executed. That pins the per-bank seeds.
					if run := results[g.name+"/"+t+"/0"]; run.TotalActs == want.TotalActs {
						m.check(commands == run.ExtraActs,
							"sim-direct: %s: %s leg issued %d commands, RunCtx executed %d: the leg's mitigations no longer match sim's lanes",
							g.name, t, commands, run.ExtraActs)
					}
					span("bench.stage.mitigation", t0, t0.Add(d), "technique", t)
					mit := float64(d) / float64(stream.acts)
					ls.mit[t] = append(ls.mit[t], mit)
					legs += mit * actsPerAccess
				}
				if env.lay == nil {
					continue
				}
				t0 := time.Now()
				if _, err := sim.RunCtx(ctx, cfg, t); err != nil {
					return err
				}
				run := float64(time.Since(t0)) / float64(n)
				key := g.name + "/" + techLabel(t)
				runNs[key] = append(runNs[key], run)
				ls.ratio[t] = append(ls.ratio[t], legs/run)
			}
			if env.lay == nil {
				continue
			}
			c0 := time.Now()
			err = r.ctrl.RunIntervalsCtx(ctx, cfg.Windows*cfg.Params.RefInt, func() (int, int, bool) {
				a := r.gen.Next()
				return a.Bank, a.Row, a.Write
			})
			c1 := time.Now()
			if err != nil {
				return err
			}
			ls.ctrl = append(ls.ctrl, float64(c1.Sub(c0))/float64(r.ctrl.Stats().Accesses))
			span("bench.stage.controller", c0, c1)
		}
		if env.lay != nil {
			recordLegs(env.lay, m, g, all, ls, runNs)
		}
	}
	return nil
}

// recordLegs publishes one geometry's stage figures. Reconciliation (b):
// a technique's isolated legs cannot cost more than 1.15 x its RunCtx;
// what RunCtx spends beyond them is dispatch (lane routing, refresh
// catch-up, command execution).
func recordLegs(lay *layers, m *measurement, g simGeom, all []string, ls legSamples, runNs map[string][]float64) {
	lay.set("workload.gen_ns_per_access."+g.name, minOf(ls.gen))
	lay.set("dram.ns_per_act."+g.name, minOf(ls.dram))
	if !g.stages {
		var sum float64
		for _, t := range all {
			sum += minOf(runNs[g.name+"/"+techLabel(t)])
		}
		lay.set("sim.ns_per_access."+g.name, sum/float64(len(all)))
		return
	}
	lay.set("memctrl.controller_ns_per_access", minOf(ls.ctrl))
	var frac float64
	var ratios strings.Builder
	for _, t := range all {
		if t != "" {
			lay.set("mitigation.ns_per_act."+t, minOf(ls.mit[t]))
		}
		lay.set("sim.ns_per_access."+techLabel(t), minOf(runNs[g.name+"/"+techLabel(t)]))
		ratio := median(ls.ratio[t])
		m.check(ratio <= 1.15,
			"sim-direct: reconciliation: %s legs take %.2f x RunCtx, above 1.15", techLabel(t), ratio)
		frac += (1 - ratio) / float64(len(all))
		fmt.Fprintf(&ratios, " %s %.2f", techLabel(t), ratio)
	}
	lay.set("sim.dispatch_frac", frac)
	fmt.Fprintf(os.Stderr, "bench: sim-direct: legs / RunCtx, median of %d pairs:%s\n", len(ls.ratio[""]), ratios.String())
}
