package sim

import (
	"context"

	"tivapromi/internal/dram"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/workload"
)

// LatencyResult reports one technique's request-latency cost through the
// cycle-accurate FR-FCFS scheduler under the attack workload — the
// performance view behind the paper's "activation overhead" metric.
type LatencyResult struct {
	Technique  string  // "none" for the unprotected system
	AvgLatency float64 // mean request latency in controller cycles
	MaxLatency int64   // worst request latency in controller cycles
	RowHitPct  float64 // percentage of requests served from an open row
	ExtraActs  uint64  // mitigation-issued activations + direct refreshes
}

// LatencyProbeCtx runs the cycle-accurate scheduler for one refresh
// window of mixed attack traffic under `technique` ("" for an
// unprotected system) and measures the latency cost of the mitigation's
// extra maintenance commands. Deterministic in cfg.Seed.
func LatencyProbeCtx(ctx context.Context, cfg Config, technique string) (LatencyResult, error) {
	if err := ctx.Err(); err != nil {
		return LatencyResult{}, err
	}
	p := cfg.Params
	dev, err := dram.New(p, nil)
	if err != nil {
		return LatencyResult{}, err
	}
	var mit mitigation.Mitigator
	label := "none"
	if technique != "" {
		f, err := mitigation.Lookup(technique)
		if err != nil {
			return LatencyResult{}, permanent(err)
		}
		mit = f(mitigation.Target{
			Banks: p.TotalBanks(), RowsPerBank: p.RowsPerBank, RefInt: p.RefInt,
			FlipThreshold: p.FlipThreshold,
		}, 1)
		label = technique
	}
	sched, err := memctrl.NewScheduler(memctrl.DDR42400(), dev, mit, 32)
	if err != nil {
		return LatencyResult{}, err
	}
	st, err := newLatencyStream(cfg)
	if err != nil {
		return LatencyResult{}, err
	}
	// One refresh interval per call: the same command sequence as a
	// single RunIntervals(RefInt) call, with a cancellation check and a
	// watchdog heartbeat between intervals.
	hb := HeartbeatFrom(ctx)
	for i := 0; i < p.RefInt; i++ {
		sched.RunIntervals(1, st)
		if err := ctx.Err(); err != nil {
			return LatencyResult{}, err
		}
		hb.Tick()
	}
	stats := sched.Stats()
	ds := dev.Stats()
	return LatencyResult{
		Technique:  label,
		AvgLatency: stats.AvgLatency(),
		MaxLatency: stats.LatencyMax,
		RowHitPct:  100 * float64(stats.RowHits()) / float64(stats.Served),
		ExtraActs:  ds.NeighborActs + ds.DirectRefreshes,
	}, nil
}

// newLatencyStream feeds the scheduler the same kind of mixed traffic
// Run uses, from workload.Kernel blocks of blockLen accesses, with its
// own attack plan: the default ramp and burst over RefInt*200 planned
// accesses, and a share coin seeded by Seed^0x1a7e.
func newLatencyStream(cfg Config) (func() (int, int), error) {
	p := cfg.Params
	att, err := workload.NewAttacker(workload.DefaultAttackerConfig(
		cfg.AttackBanks, p.RowsPerBank, uint64(p.RefInt)*200, cfg.Seed))
	if err != nil {
		return nil, err
	}
	k := workload.NewKernel(p.TotalBanks(), p.RowsPerBank, cfg.Seed, blockLen, att, cfg.AttackShare, cfg.Seed^0x1a7e)
	var bank, row [blockLen]int32
	j := blockLen
	return func() (int, int) {
		if j == blockLen {
			k.Fill(bank[:], row[:])
			j = 0
		}
		j++
		return int(bank[j-1]), int(row[j-1])
	}, nil
}
