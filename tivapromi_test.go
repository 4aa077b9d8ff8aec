package tivapromi

import (
	"context"
	"path/filepath"
	"testing"
)

func TestFacadeParams(t *testing.T) {
	p := PaperParams()
	if p.RefInt != 8192 || p.FlipThreshold != 139000 {
		t.Fatalf("paper params wrong: %+v", p)
	}
	s := ScaledParams()
	if s.RefInt != 1024 {
		t.Fatalf("scaled params wrong: %+v", s)
	}
	if err := DefaultSimConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTechniquesRegistered(t *testing.T) {
	names := Techniques()
	if len(names) < 9 {
		t.Fatalf("only %d techniques registered: %v", len(names), names)
	}
	if got := len(PaperTechniques()); got != 9 {
		t.Fatalf("paper techniques = %d", got)
	}
	for _, name := range PaperTechniques() {
		m, err := NewMitigation(name, Target{
			Banks: 2, RowsPerBank: 16384, RefInt: 1024, FlipThreshold: 16384,
		}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() != name {
			t.Fatalf("%s built %s", name, m.Name())
		}
	}
}

func TestFacadeDirectConstructors(t *testing.T) {
	cfg := CoreConfig{RowsPerBank: 16384, RefInt: 1024, HistoryEntries: 32, RowBits: 14}
	m, err := NewTiVaPRoMi(LoLiPRoMi, 2, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Variant() != LoLiPRoMi {
		t.Fatal("variant lost")
	}
	ca, err := NewCaPRoMi(2, CaConfig{
		Config:         cfg,
		CounterEntries: 64, LockThreshold: 32, MaxActsPerInterval: 165,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Name() != "CaPRoMi" {
		t.Fatal("wrong name")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Windows = 1
	cfg.MinAggressors, cfg.MaxAggressors = 2, 2
	res, err := RunSimulation(cfg, "CaPRoMi")
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips != 0 {
		t.Fatalf("CaPRoMi flipped %d", res.Flips)
	}
	sum, err := RunSeeds(cfg, "PARA", Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Overhead.N() != 2 {
		t.Fatal("seed sweep incomplete")
	}
}

func TestFacadeWorkloadAndAttacker(t *testing.T) {
	w := SPECMix(4, 16384, 1)
	for i := 0; i < 1000; i++ {
		a := w.Next()
		if a.Bank < 0 || a.Bank >= 4 || a.Row < 0 || a.Row >= 16384 {
			t.Fatalf("bad access %+v", a)
		}
	}
	att, err := NewAttacker(AttackerConfig{
		TargetBanks: []int{0}, RowsPerBank: 16384,
		MinAggressors: 1, MaxAggressors: 20, PlannedAccesses: 1000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if att.Next().Bank != 0 {
		t.Fatal("attacker missed its bank")
	}
}

func TestFacadeHardenedRunnerAndFaults(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Windows = 1

	// Hardened sweep through the façade.
	sum, runErrs, err := RunSeedsCtx(context.Background(), DefaultRunnerConfig(), cfg, "PARA", Seeds(1, 2))
	if err != nil || len(runErrs) != 0 {
		t.Fatalf("err=%v runErrs=%v", err, runErrs)
	}
	if len(sum.Runs) != 2 {
		t.Fatalf("completed %d runs, want 2", len(sum.Runs))
	}

	// Fault campaign through SimConfig.Fault: the Loaded Dice case —
	// PARA with a stuck LFSR loses its protection entirely.
	cfg.Fault = FaultPlan{Model: FaultStuckRNG, Rate: 1, Seed: 3}
	res, err := RunSimulation(cfg, "PARA")
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtraActs != 0 {
		t.Fatalf("stuck-RNG PARA still issued %d maintenance commands", res.ExtraActs)
	}

	// Checkpointed runner through the façade.
	ck, err := LoadCheckpoint(filepath.Join(t.TempDir(), "ck.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	r.Checkpoint = ck
	cfg.Fault = FaultPlan{}
	a, _, err := r.RunSeeds(context.Background(), cfg, "PARA", Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := r.RunSeeds(context.Background(), cfg, "PARA", Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Overhead.Mean() != b.Overhead.Mean() || a.TotalFlips != b.TotalFlips {
		t.Fatal("checkpointed re-run diverged")
	}

	// Harness wrap + fault model enumeration.
	m, err := NewMitigation("LoLiPRoMi", Target{Banks: 2, RowsPerBank: 1024, RefInt: 512, FlipThreshold: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := WrapWithFaults(m, FaultPlan{Model: FaultStateSEU, Rate: 0.5, Seed: 9})
	if h.Name() != m.Name() {
		t.Fatal("harness does not delegate Name")
	}
	if len(FaultModels()) < 4 {
		t.Fatalf("%d fault models, want >= 4", len(FaultModels()))
	}
}
