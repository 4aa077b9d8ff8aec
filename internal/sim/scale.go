package sim

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tivapromi/internal/dram"
)

// Scale smoke: prove that a full-DIMM geometry simulates with heap
// proportional to the rows the workload touches, not the row population.
// The run is driven through the normal prepareGroup/drive pipeline, but
// the environment is kept reachable across a forced GC so the live-heap
// delta actually reflects the retained simulation state, and the per-lane
// device accounting (StateBytes, TouchedRows) is read before teardown.

// ScaleSmokeReport carries the measurements of one full-geometry smoke
// run, ready to serialize into the campaign benchmark report.
type ScaleSmokeReport struct {
	// Geometry is ranks x bank-groups x banks x rows-per-bank.
	Geometry   string `json:"geometry"`
	TotalBanks int    `json:"total_banks"`
	TotalRows  int    `json:"total_rows"`
	// Sparse records which state representation the run resolved to.
	Sparse bool `json:"sparse"`

	// TouchedRows is the row population backed by allocated pages across
	// all lanes; StateBytes is their accounted heap footprint.
	TouchedRows int `json:"touched_rows"`
	StateBytes  int `json:"state_bytes"`
	// DenseBytes is what the dense layout would have allocated for the
	// same geometry — the baseline both gates compare against.
	DenseBytes int `json:"dense_state_bytes"`
	// HeapGrowth is the post-GC live-heap delta across the run, measured
	// with the simulation state still reachable.
	HeapGrowth uint64 `json:"heap_growth_bytes"`

	Flips     int     `json:"flips"`
	TotalActs uint64  `json:"total_acts"`
	ExtraActs uint64  `json:"extra_acts"`
	Seconds   float64 `json:"seconds"`
}

// GeometryString formats p's geometry as ranks x groups x banks x rows.
func GeometryString(p dram.Params) string {
	ranks, groups := p.Ranks, p.BankGroups
	if ranks < 1 {
		ranks = 1
	}
	if groups < 1 {
		groups = 1
	}
	return fmt.Sprintf("%dx%dx%dx%d", ranks, groups, p.Banks, p.RowsPerBank)
}

// ScaleSmokeConfig returns the attacker-dominated workload the smoke run
// uses on params p: the entire access stream hammers two banks, so a
// sparse device's touched pages stay far below the population. (A mixed
// workload's uniform component would spray one page per background
// access and defeat the point of the measurement.)
func ScaleSmokeConfig(p dram.Params) Config {
	banks := p.TotalBanks()
	attack := []int{0}
	if banks > 1 {
		// Two banks in different bank groups when the geometry has them.
		other := banks / 2
		attack = append(attack, other)
	}
	return Config{
		Params:        p,
		Policy:        PolicyNeighbors,
		Windows:       1,
		AttackBanks:   attack,
		MinAggressors: 1,
		MaxAggressors: 8,
		AttackShare:   1.0,
		Seed:          1,
	}
}

// ScaleSmoke runs cfg once and measures the memory the simulation
// actually retained. The heap delta is taken across a forced GC with the
// run environment still live, so it bounds the real footprint of the
// per-lane devices, controllers, and stream rather than transient
// garbage.
func ScaleSmoke(ctx context.Context, cfg Config, technique string) (ScaleSmokeReport, error) {
	rep := ScaleSmokeReport{
		Geometry:   GeometryString(cfg.Params),
		TotalBanks: cfg.Params.TotalBanks(),
		TotalRows:  cfg.Params.TotalRows(),
		Sparse:     cfg.Params.Sparse(),
		DenseBytes: dram.DenseStateBytes(cfg.Params),
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	g, err := prepareGroup([]Member{{Config: cfg, Technique: technique}})
	if err != nil {
		return rep, err
	}
	if err := g.src.drive(ctx, g.envs); err != nil {
		return rep, err
	}
	env := g.envs[0]
	res := env.collect(0)
	rep.Seconds = time.Since(start).Seconds()

	// Live-heap high water: GC first so the delta excludes transient
	// garbage, then read with env still reachable below.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	for _, l := range env.lanes {
		rep.TouchedRows += l.Device().TouchedRows()
		rep.StateBytes += l.Device().StateBytes()
	}
	runtime.KeepAlive(env)

	if after.HeapAlloc > before.HeapAlloc {
		rep.HeapGrowth = after.HeapAlloc - before.HeapAlloc
	}
	rep.Flips = res.Flips
	rep.TotalActs = res.TotalActs
	rep.ExtraActs = res.ExtraActs
	return rep, nil
}

// Check asserts the population-scale memory bounds the scale gate
// enforces: the sparse representation must be at least 8x smaller than
// the dense layout it replaces, and the whole simulation's live-heap
// growth must stay under half the dense per-row state alone. A dense run
// trivially violates the first bound, so Check also guards against a
// geometry that silently resolved dense.
func (r ScaleSmokeReport) Check() error {
	if !r.Sparse {
		return fmt.Errorf("sim: scale smoke ran dense (%s resolves %d rows; sparse needs >= %d)",
			r.Geometry, r.TotalRows, 1<<21)
	}
	if r.StateBytes*8 > r.DenseBytes {
		return fmt.Errorf("sim: sparse state %d B exceeds 1/8 of dense %d B (touched %d of %d rows)",
			r.StateBytes, r.DenseBytes, r.TouchedRows, r.TotalRows)
	}
	if r.HeapGrowth > uint64(r.DenseBytes)/2 {
		return fmt.Errorf("sim: live heap grew %d B, over half the dense footprint %d B",
			r.HeapGrowth, r.DenseBytes)
	}
	return nil
}
