package sim

import (
	"context"
	"math"
	"testing"

	"tivapromi/internal/core"
	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// TestProtectsClassification pins the one protection rule every probe
// counts with: a command protects when it restores a victim.
func TestProtectsClassification(t *testing.T) {
	flood := []int{99, 101} // the victims of aggressor 100
	one := []int{100}
	cmd := func(k mitigation.CommandKind, row int, side int8) mitigation.Command {
		return mitigation.Command{Kind: k, Row: row, Side: side}
	}
	cases := []struct {
		name    string
		cmds    []mitigation.Command
		victims []int
		want    int
	}{
		{"no commands", nil, flood, 0},
		{"act_n on the aggressor restores both victims, counted once", []mitigation.Command{cmd(mitigation.ActN, 100, 0)}, flood, 1},
		{"act_n on a victim restores its neighbours only", []mitigation.Command{cmd(mitigation.ActN, 101, 0)}, flood, 0},
		{"act_n on a victim's far neighbour restores it", []mitigation.Command{cmd(mitigation.ActN, 102, 0)}, flood, 1},
		{"act_n on lower aggressor", []mitigation.Command{cmd(mitigation.ActN, 99, 0)}, one, 1},
		{"act_n on upper aggressor", []mitigation.Command{cmd(mitigation.ActN, 101, 0)}, one, 1},
		{"act_n on the victim itself", []mitigation.Command{cmd(mitigation.ActN, 100, 0)}, one, 0},
		{"one-sided +1 from the aggressor", []mitigation.Command{cmd(mitigation.ActNOne, 100, 1)}, flood, 1},
		{"one-sided -1 from the aggressor", []mitigation.Command{cmd(mitigation.ActNOne, 100, -1)}, flood, 1},
		{"one-sided +1 lands on the victim", []mitigation.Command{cmd(mitigation.ActNOne, 99, 1)}, one, 1},
		{"one-sided -1 lands away from the victim", []mitigation.Command{cmd(mitigation.ActNOne, 99, -1)}, one, 0},
		{"direct refresh of the lower victim", []mitigation.Command{cmd(mitigation.RefreshRow, 99, 0)}, flood, 1},
		{"direct refresh of the upper victim", []mitigation.Command{cmd(mitigation.RefreshRow, 101, 0)}, flood, 1},
		{"direct refresh of the aggressor", []mitigation.Command{cmd(mitigation.RefreshRow, 100, 0)}, flood, 0},
		{"direct refresh of a non-victim", []mitigation.Command{cmd(mitigation.RefreshRow, 99, 0)}, one, 0},
		{"every protecting command counts", []mitigation.Command{
			cmd(mitigation.ActN, 99, 0), cmd(mitigation.RefreshRow, 98, 0), cmd(mitigation.RefreshRow, 100, 0),
		}, one, 2},
	}
	for _, c := range cases {
		if got := protections(c.cmds, c.victims); got != c.want {
			t.Errorf("%s: %d protections, want %d", c.name, got, c.want)
		}
	}
}

// TestProbesPinned pins every attack probe's values, as float bits, at
// the scaled device: the rendered tables show three significant digits
// at most, so a change to a probe's pattern or accounting could pass
// them unseen.
func TestProbesPinned(t *testing.T) {
	ctx := context.Background()
	p := dram.ScaledParams()

	floods := map[string]struct {
		median, p90 uint64
		unprotected int
	}{
		"ProHit":    {0x4064a00000000000, 0x4074a00000000000, 0},
		"MRLoc":     {0x40c2c48000000000, 0x40c85a0000000000, 0},
		"PARA":      {0x4096480000000000, 0x409b280000000000, 0},
		"TWiCe":     {0x40c4000000000000, 0x40c4000000000000, 0},
		"CRA":       {0x40c4000000000000, 0x40c4000000000000, 0},
		"CaPRoMi":   {0x40bda60000000000, 0x40d25e8000000000, 0},
		"LiPRoMi":   {0x40c7fb8000000000, 0x40d8390000000000, 0},
		"LoPRoMi":   {0x40c7a90000000000, 0x40d80fc000000000, 0},
		"LoLiPRoMi": {0x40c7a90000000000, 0x40d80fc000000000, 0},
	}
	for _, name := range TechniqueNames() {
		f, err := FloodCtx(ctx, name, p, p.MaxActsPerRI, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		w := floods[name]
		if math.Float64bits(f.MedianActs) != w.median || math.Float64bits(f.P90Acts) != w.p90 || f.Unprotected != w.unprotected {
			t.Errorf("%s flood: median %v p90 %v unprotected %d, want %v %v %d", name,
				f.MedianActs, f.P90Acts, f.Unprotected,
				math.Float64frombits(w.median), math.Float64frombits(w.p90), w.unprotected)
		}
	}

	// Survival, rotation, decoy and saturation ratios.
	probes := map[string][4]uint64{
		"ProHit":    {0x0, 0x3ff42cf4c2cf4c2d, 0x3ff062b553c1062b, 0x3ff0aeb5fd92ce41},
		"MRLoc":     {0x0, 0x400ee8ba2e8ba2e9, 0x3ff1c4111fadce58, 0x401ee8ba2e8ba2e9},
		"PARA":      {0x3e219e70a74cc3b1, 0x3ff0000000000000, 0x3ff6fc0fc0fc0fc1, 0x3ff0690690690691},
		"TWiCe":     {0x0, 0x3ff0000000000000, 0x0, 0x3ff0000000000000},
		"CRA":       {0x0, 0x3ff0000000000000, 0x0, 0x3ff0000000000000},
		"CaPRoMi":   {0x3f53fc9d71b3dfbf, 0x4008800000000001, 0x400206f34206f342, 0x3fe8000000000000},
		"LiPRoMi":   {0x3f805df76fa924ef, 0x40061e1e1e1e1e1e, 0x400ea56a56a56a57, 0x3fe9999999999999},
		"LoPRoMi":   {0x3f571f7b633c8dea, 0x4003d37a6f4de9bd, 0x400aa619af84b583, 0x3ff0000000000000},
		"LoLiPRoMi": {0x3f571f7b633c8dea, 0x4007878787878788, 0x400989d89d89d89e, 0x3feccccccccccccc},
		"CAT":       {0x0, 0x3fe1111111111111, 0x0, 0x3ff0000000000000},
		"TRR":       {0x0, 0x3ff0000000000000, 0x3fe25b13b13b13b1, 0x3ff0000000000000},
		"QuaPRoMi":  {0x3fdc84cfbd3612e4, 0x400a666666666667, 0x400ea56a56a56a57, 0x3ff0000000000000},
	}
	for _, name := range append(TechniqueNames(), ExtensionTechniques()...) {
		var got [4]float64
		var err error
		if got[0], err = floodSurvival(ctx, name, p, 1); err != nil {
			t.Fatal(err)
		}
		if got[1], _, err = rotationProbe(ctx, name, p, 7); err != nil {
			t.Fatal(err)
		}
		if got[2], err = decoyProbe(ctx, name, p, 7); err != nil {
			t.Fatal(err)
		}
		if got[3], err = saturationProbe(ctx, name, p, 7); err != nil {
			t.Fatal(err)
		}
		for i, probe := range []string{"survival", "rotation", "decoy", "saturation"} {
			if want := probes[name][i]; math.Float64bits(got[i]) != want {
				t.Errorf("%s %s = %v, want %v", name, probe, got[i], math.Float64frombits(want))
			}
		}
	}

	median, err := PbaseFloodMedian(ctx, Config{Params: p}, core.LoLiPRoMi, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(0x40dc4a8000000000); math.Float64bits(median) != want {
		t.Errorf("Pbase flood median = %v, want %v", median, math.Float64frombits(want))
	}

	// The closed forms at paper scale, through both of their callers.
	sweep := map[string][2]uint64{ // survival at 35 K, 139 K
		"ProHit":    {0x3e6425bae2d18942, 0x39d06432e2067e7d},
		"MRLoc":     {0x3f527fcde321e0cc, 0x3d815af6a16a56fa},
		"PARA":      {0x3e643b50da13155f, 0x39d0aa60e6a6f3ba},
		"TWiCe":     {0x0, 0x0},
		"CRA":       {0x0, 0x0},
		"CaPRoMi":   {0x3fe0cd97b1a471c3, 0x3f03bc5c7b63ddd4},
		"LiPRoMi":   {0x3fe499a2ec576b18, 0x3f4ebec55313e89d},
		"LoPRoMi":   {0x3fe0e650623470c4, 0x3f05aecd57428260},
		"LoLiPRoMi": {0x3fe0e650623470c4, 0x3f05aecd57428260},
	}
	for _, pt := range ThresholdSweep(dram.PaperParams(), []uint32{35000, 139000}) {
		i := 0
		if pt.Threshold == 139000 {
			i = 1
		}
		if want := sweep[pt.Technique][i]; math.Float64bits(pt.Survival) != want {
			t.Errorf("%s sweep survival at %d = %v, want %v", pt.Technique, pt.Threshold, pt.Survival, math.Float64frombits(want))
		}
	}
	for name, want := range map[string]uint64{
		"PARA": 0x39d0aa60e6a6f3ba, "CaPRoMi": 0x3f03bc5c7b63ddd4, "LiPRoMi": 0x3f4ebec55313e89d,
		"LoPRoMi": 0x3f05aecd57428260, "LoLiPRoMi": 0x3f05aecd57428260, "QuaPRoMi": 0x3fe3a52c51776266,
	} {
		s, err := floodSurvival(ctx, name, dram.PaperParams(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(s) != want {
			t.Errorf("%s paper-scale survival = %v, want %v", name, s, math.Float64frombits(want))
		}
	}
}
