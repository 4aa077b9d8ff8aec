package tivapromi

// End-to-end integration tests across the controller substrate: a
// double-sided hammer and a SPEC-like background are served by the memory
// controller, activations feed the mitigation, and its act_n commands
// restore victim charge in the device — the Fig. 1 pipeline.

import (
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/workload"
)

// e2eSystem feeds the controller nops operations in slots of eight: the
// first hammers bank 1 rows 5000 and 5002 in turn, so every hammer access
// misses the open row as a CLFLUSH loop makes it do; the next five are
// workload.SPECMix background accesses; the last two stand for accesses
// the caches absorb. In 60 k operations that delivers 7,500 hammer
// activations and about 25,000 background ones, the mix a 4-core
// cache-filtered system with two flush+reload cores delivers in as many
// instruction-level operations.
func e2eSystem(t *testing.T, technique string, nops uint64) (*dram.Device, *memctrl.Controller) {
	t.Helper()
	p := dram.ScaledParams()
	p.FlipThreshold = 6000 // scaled to the shorter e2e run

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
	background := workload.SPECMix(p.Banks, p.RowsPerBank, 1)
	for i := uint64(0); i < nops; i++ {
		switch slot := i % 8; {
		case slot == 0:
			ctl.AccessRow(1, victim-1+2*int(i/8%2), false)
		case slot <= 5:
			a := background.Next()
			ctl.AccessRow(a.Bank, a.Row, a.Write)
		}
	}
	return dev, ctl
}

func TestEndToEndUnprotectedFlips(t *testing.T) {
	dev, ctl := e2eSystem(t, "", 60_000)
	if ctl.Stats().RowMisses == 0 {
		t.Fatal("no DRAM activations reached the device")
	}
	flips := dev.Flips()
	if len(flips) == 0 {
		t.Fatal("double-sided hammering through the full pipeline did not flip")
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
