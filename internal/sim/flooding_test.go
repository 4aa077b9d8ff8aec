package sim

import (
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// floodParams keeps flooding tests fast: scaled device, full structure.
func floodParams() dram.Params { return dram.ScaledParams() }

func TestFloodValidation(t *testing.T) {
	p := floodParams()
	if _, err := Flood("LiPRoMi", p, 0, 5, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Flood("LiPRoMi", p, 1000, 5, 1); err == nil {
		t.Fatal("rate above the DDR4 ceiling accepted")
	}
	if _, err := Flood("LiPRoMi", p, 100, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := Flood("Nonsense", p, 100, 5, 1); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestFloodOrderingAcrossVariants(t *testing.T) {
	// §IV shape: the logarithmic variants protect earlier than the
	// linear one under flooding from weight zero.
	p := floodParams()
	medians := map[string]float64{}
	for _, name := range []string{"LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"} {
		f, err := Flood(name, p, p.MaxActsPerRI, 15, 3)
		if err != nil {
			t.Fatal(err)
		}
		if f.Unprotected != 0 {
			t.Fatalf("%s: %d trials never protected", name, f.Unprotected)
		}
		medians[name] = f.MedianActs
	}
	if medians["LoPRoMi"] >= medians["LiPRoMi"] {
		t.Errorf("LoPRoMi (%.0f) should protect before LiPRoMi (%.0f)",
			medians["LoPRoMi"], medians["LiPRoMi"])
	}
	if medians["LoLiPRoMi"] >= medians["LiPRoMi"] {
		t.Errorf("LoLiPRoMi (%.0f) should protect before LiPRoMi (%.0f)",
			medians["LoLiPRoMi"], medians["LiPRoMi"])
	}
	if medians["CaPRoMi"] >= medians["LiPRoMi"] {
		t.Errorf("CaPRoMi (%.0f) should protect before LiPRoMi (%.0f)",
			medians["CaPRoMi"], medians["LiPRoMi"])
	}
}

func TestFloodCountersDeterministic(t *testing.T) {
	p := floodParams()
	for _, name := range []string{"TWiCe", "CRA"} {
		f, err := Flood(name, p, p.MaxActsPerRI, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(p.FlipThreshold / 4)
		if f.MedianActs != want || f.P90Acts != want {
			t.Errorf("%s flood trigger at %.0f/%.0f, want deterministic %.0f",
				name, f.MedianActs, f.P90Acts, want)
		}
		if !f.AllSafe() {
			t.Errorf("%s not flood-safe", name)
		}
	}
}

func TestProtectsClassification(t *testing.T) {
	cases := []struct {
		cmd  mitigation.Command
		row  int
		want bool
	}{
		{mitigation.Command{Kind: mitigation.ActN, Row: 100}, 100, true},
		{mitigation.Command{Kind: mitigation.ActN, Row: 101}, 100, false},
		{mitigation.Command{Kind: mitigation.ActNOne, Row: 100}, 100, true},
		{mitigation.Command{Kind: mitigation.RefreshRow, Row: 99}, 100, true},
		{mitigation.Command{Kind: mitigation.RefreshRow, Row: 101}, 100, true},
		{mitigation.Command{Kind: mitigation.RefreshRow, Row: 100}, 100, false},
	}
	for i, c := range cases {
		if got := protects([]mitigation.Command{c.cmd}, c.row); got != c.want {
			t.Errorf("case %d: protects = %v, want %v", i, got, c.want)
		}
	}
	if protects(nil, 100) {
		t.Error("empty command list protects")
	}
}
