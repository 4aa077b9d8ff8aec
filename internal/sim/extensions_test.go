package sim

import (
	"context"
	"testing"

	"tivapromi/internal/dram"
)

func TestExtensionTechniquesRegistered(t *testing.T) {
	for _, name := range ExtensionTechniques() {
		r, err := Run(fastConfig(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Flips != 0 {
			t.Errorf("%s flipped %d rows under the standard campaign", name, r.Flips)
		}
	}
}

func TestQuaPRoMiTradeOff(t *testing.T) {
	// The quadratic extension must undercut LiPRoMi's overhead (its
	// weights are below linear except at the window's end)...
	cfg := fastConfig()
	cfg.Windows = 2
	qua, err := RunSeeds(cfg, "QuaPRoMi", Seeds(70, 3))
	if err != nil {
		t.Fatal(err)
	}
	li, err := RunSeeds(cfg, "LiPRoMi", Seeds(70, 3))
	if err != nil {
		t.Fatal(err)
	}
	if qua.Overhead.Mean() >= li.Overhead.Mean() {
		t.Errorf("QuaPRoMi overhead %.4f not below LiPRoMi %.4f",
			qua.Overhead.Mean(), li.Overhead.Mean())
	}
	// ...at the price of a far worse flooding tail (the reason the paper
	// stops at logarithmic ramps).
	p := dram.PaperParams()
	quaSurv, err := floodSurvival(context.Background(), "QuaPRoMi", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	liSurv, err := floodSurvival(context.Background(), "LiPRoMi", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if quaSurv < 100*liSurv {
		t.Errorf("QuaPRoMi survival %.2e should dwarf LiPRoMi's %.2e", quaSurv, liSurv)
	}
}

func TestCATSaturationProbeCollapses(t *testing.T) {
	if testing.Short() {
		t.Skip("extension probes are slow; skipped in -short mode")
	}
	p := dram.PaperParams()
	ratio, err := saturationProbe(context.Background(), "CAT", p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > RotationLimit {
		t.Fatalf("CAT saturation ratio %.2f; the tree-fill attack should collapse it", ratio)
	}
	// The counter techniques are untouched by the same pattern.
	twice, err := saturationProbe(context.Background(), "TWiCe", p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if twice < 0.5 {
		t.Fatalf("TWiCe saturation ratio %.2f; per-row counters should not saturate", twice)
	}
}

func TestDecoyProbeBehavior(t *testing.T) {
	if testing.Short() {
		t.Skip("extension probes are slow; skipped in -short mode")
	}
	// Stateless PARA cannot be starved by decoys; at its calibrated
	// (paper-matching) insertion rate ProHit also withstands them — an
	// earlier, hotter insertion rate made it starve, so the probe guards
	// the calibrated behavior.
	p := dram.PaperParams()
	for _, name := range []string{"PARA", "ProHit"} {
		ratio, err := decoyProbe(context.Background(), name, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 0.5 {
			t.Fatalf("%s decoy ratio %.2f, expected resistance", name, ratio)
		}
	}
}

func TestAnalyzeExtensionClassifications(t *testing.T) {
	if testing.Short() {
		t.Skip("extension probes are slow; skipped in -short mode")
	}
	p := dram.PaperParams()
	want := map[string]bool{"CAT": true, "QuaPRoMi": true, "TRR": false}
	for name, vulnerable := range want {
		rep, err := AnalyzeExtensionCtx(context.Background(), name, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Vulnerable != vulnerable {
			t.Errorf("%s vulnerable = %v (%s), want %v", name, rep.Vulnerable, rep.Reason, vulnerable)
		}
	}
}
