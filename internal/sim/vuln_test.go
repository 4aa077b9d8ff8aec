package sim

import (
	"context"
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

func TestVulnerabilityColumnMatchesTableIII(t *testing.T) {
	// The paper's Table III: PARA, MRLoc and LiPRoMi are vulnerable; the
	// other six are not.
	if testing.Short() {
		t.Skip("vulnerability probes are slow; skipped in -short mode")
	}
	p := dram.PaperParams()
	want := map[string]bool{
		"ProHit": false, "MRLoc": true, "PARA": true,
		"TWiCe": false, "CRA": false,
		"CaPRoMi": false, "LiPRoMi": true, "LoPRoMi": false, "LoLiPRoMi": false,
	}
	names := TechniqueNames()
	if len(names) != 9 {
		t.Fatalf("got %d techniques", len(names))
	}
	for _, name := range names {
		r, err := AnalyzeVulnerability(name, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if r.Vulnerable != want[r.Technique] {
			t.Errorf("%s vulnerable = %v (%s), Table III says %v",
				r.Technique, r.Vulnerable, r.Reason, want[r.Technique])
		}
	}
}

func TestFloodSurvivalAnalytics(t *testing.T) {
	p := dram.PaperParams()
	li, err := floodSurvival(context.Background(), "LiPRoMi", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := floodSurvival(context.Background(), "LoPRoMi", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. 2 dominates Eq. 1, so the logarithmic variant's survival must
	// be strictly smaller; only the linear one crosses the limit.
	if lo >= li {
		t.Fatalf("LoPRoMi survival %g not below LiPRoMi %g", lo, li)
	}
	if li <= SurvivalLimit {
		t.Fatalf("LiPRoMi survival %g under the limit; the Section III-A weakness vanished", li)
	}
	if lo > SurvivalLimit {
		t.Fatalf("LoPRoMi survival %g above the limit", lo)
	}
	para, err := floodSurvival(context.Background(), "PARA", p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if para > 1e-10 {
		t.Fatalf("PARA flooding survival %g should be negligible", para)
	}
}

func TestRotationProbeEscalationFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("rotation probes are slow; skipped in -short mode")
	}
	p := dram.PaperParams()
	for name, wantNonEsc := range map[string]bool{
		"PARA": true, "MRLoc": true, "TWiCe": false, "LiPRoMi": false,
	} {
		_, nonEsc, err := rotationProbe(context.Background(), name, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if nonEsc != wantNonEsc {
			t.Errorf("%s non-escalating = %v, want %v", name, nonEsc, wantNonEsc)
		}
	}
}

// TestCountProtections pins the rotation probe's view of the protection
// rule: one victim, row 100, restored by each kind of command.
func TestCountProtections(t *testing.T) {
	victims := []int{100}
	check := func(k mitigation.CommandKind, row int, side int8, want int) {
		t.Helper()
		got := protections([]mitigation.Command{{Kind: k, Row: row, Side: side}}, victims)
		if got != want {
			t.Errorf("kind %v row %d side %d: %d protections, want %d", k, row, side, got, want)
		}
	}
	check(mitigation.ActN, 99, 0, 1)     // act_n on aggressor 99 protects 100
	check(mitigation.ActN, 101, 0, 1)    // act_n on aggressor 101 protects 100
	check(mitigation.ActN, 100, 0, 0)    // act_n on the victim protects 99/101
	check(mitigation.ActNOne, 99, 1, 1)  // one-sided +1 from 99 hits 100
	check(mitigation.ActNOne, 99, -1, 0) // one-sided -1 from 99 hits 98
	check(mitigation.RefreshRow, 100, 0, 1)
	check(mitigation.RefreshRow, 99, 0, 0)
}
