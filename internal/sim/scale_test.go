package sim

import (
	"context"
	"testing"

	"tivapromi/internal/dram"
)

// TestScaleSmokeHeapBounded is the population-scale memory gate: a
// full-DIMM geometry (32 banks, 2M rows) must simulate with heap bounded
// by the rows the attacker-dominated workload touches, not the
// population. CI's parallel-gates job runs exactly this test.
func TestScaleSmokeHeapBounded(t *testing.T) {
	p := dram.FullDIMMParams()
	if !p.Sparse() {
		t.Fatalf("FullDIMMParams (%d rows) must resolve sparse under Auto", p.TotalRows())
	}
	cfg := ScaleSmokeConfig(p)
	rep, err := ScaleSmoke(context.Background(), cfg, "PARA")
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalActs == 0 {
		t.Fatal("smoke run serviced no activations")
	}
	if rep.TouchedRows == 0 || rep.TouchedRows >= rep.TotalRows {
		t.Fatalf("TouchedRows = %d, want 0 < n < %d", rep.TouchedRows, rep.TotalRows)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("scale gate failed: %v\nreport: %+v", err, rep)
	}
	t.Logf("geometry=%s touched=%d/%d state=%dB dense=%dB heap+=%dB acts=%d extra=%d flips=%d in %.2fs",
		rep.Geometry, rep.TouchedRows, rep.TotalRows, rep.StateBytes, rep.DenseBytes,
		rep.HeapGrowth, rep.TotalActs, rep.ExtraActs, rep.Flips, rep.Seconds)
}

// TestScaleSmokeConfigValidates pins that the generated smoke config is
// runnable as-is for both the full-DIMM and the small seed geometry.
func TestScaleSmokeConfigValidates(t *testing.T) {
	for _, p := range []dram.Params{dram.FullDIMMParams(), dram.ScaledParams()} {
		cfg := ScaleSmokeConfig(p)
		if err := cfg.Validate(); err != nil {
			t.Errorf("ScaleSmokeConfig(%s): %v", GeometryString(p), err)
		}
	}
}
