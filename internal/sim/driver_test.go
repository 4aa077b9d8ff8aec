package sim

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tivapromi/internal/faults"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/driver_golden/*.json from RunCtx")

// goldenCase is one pinned run of a test geometry.
type goldenCase struct {
	name      string
	technique string
	mutate    func(*Config)
}

// withPlan is the goldenCase mutation that installs a fault plan.
func withPlan(p faults.Plan) func(*Config) {
	return func(c *Config) { c.Fault = p }
}

// checkGolden runs every case on the base geometry and requires each
// Result to equal the one recorded in testdata/driver_golden/<test>.json.
// With -update-golden it rewrites that file from RunCtx instead.
func checkGolden(t *testing.T, base func() Config, cases []goldenCase) {
	t.Helper()
	got := make(map[string]Result, len(cases))
	for _, tc := range cases {
		cfg := base()
		if tc.mutate != nil {
			tc.mutate(&cfg)
		}
		res, err := RunCtx(context.Background(), cfg, tc.technique)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = res
	}
	path := filepath.Join("testdata", "driver_golden", t.Name()+".json")
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, test runs %d", len(want), len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := want[tc.name]
			if !ok {
				t.Fatal("no golden Result recorded")
			}
			if got[tc.name] != w {
				t.Errorf("Result diverged from golden\n got: %+v\nwant: %+v", got[tc.name], w)
			}
		})
	}
}

// The golden tests below pin simulated Results to values recorded from
// the block driver that RunCtx replaced. Any change to the access stream,
// lane dispatch, refresh timeline, mitigation, fault injection or result
// collection shows up as a diverged field. Regenerate with
// `go test ./internal/sim -run Golden -update-golden` only when a change
// of results is intended.

// TestRunCtxMatchesGolden covers the 4-bank shardConfig geometry: the
// unprotected system and every technique, a non-default refresh policy,
// a remapped device, and a run that crosses a window wrap.
func TestRunCtxMatchesGolden(t *testing.T) {
	cases := []goldenCase{
		{name: "unprotected", technique: ""},
		{name: "PARA-random-policy", technique: "PARA",
			mutate: func(c *Config) { c.Policy = PolicyRandom }},
		{name: "CaPRoMi-remapped", technique: "CaPRoMi",
			mutate: func(c *Config) { c.RemapSwaps = 8 }},
		{name: "LoLiPRoMi-two-windows", technique: "LoLiPRoMi",
			mutate: func(c *Config) { c.Windows = 2 }},
	}
	for _, tech := range TechniqueNames() {
		cases = append(cases, goldenCase{name: tech, technique: tech})
	}
	checkGolden(t, shardConfig, cases)
}

// TestRunCtxFaultPlansMatchGolden covers each fault-injection pathway on
// the 4-bank geometry: per-access injector ticks (WeakCells), the Harness
// wrap (StateSEU) and the command filter (DropActN, DelayActN). The
// LiPRoMi plans barely fire on this short run; the heavy cases make every
// pathway act many times.
func TestRunCtxFaultPlansMatchGolden(t *testing.T) {
	var cases []goldenCase
	for _, plan := range []faults.Plan{
		{Model: faults.WeakCells, Rate: 0.001, Seed: 7},
		{Model: faults.StateSEU, Rate: 0.0005, Seed: 11},
		{Model: faults.DropActN, Rate: 0.01, Seed: 13},
		{Model: faults.DelayActN, Rate: 0.01, Seed: 17},
	} {
		cases = append(cases, goldenCase{name: "LiPRoMi-" + plan.Model.String(), technique: "LiPRoMi",
			mutate: withPlan(plan)})
	}
	cases = append(cases,
		goldenCase{name: "PARA-drop-actn-heavy", technique: "PARA",
			mutate: withPlan(faults.Plan{Model: faults.DropActN, Rate: 0.3, Seed: 13})},
		goldenCase{name: "PARA-delay-actn-heavy", technique: "PARA",
			mutate: withPlan(faults.Plan{Model: faults.DelayActN, Rate: 0.3, Seed: 17})},
		goldenCase{name: "unprotected-weak-cells-heavy", technique: "",
			mutate: withPlan(faults.Plan{Model: faults.WeakCells, Rate: 0.05, Seed: 7})},
	)
	checkGolden(t, shardConfig, cases)
}

// TestRunCtxMatchesGoldenTwoBank covers the 2-bank shrunkenConfig
// geometry, where one of two lanes carries every aggressor: a
// probabilistic and a counter technique, an unprotected run, a
// non-default refresh policy and a remapped device.
func TestRunCtxMatchesGoldenTwoBank(t *testing.T) {
	checkGolden(t, shrunkenConfig, []goldenCase{
		{name: "LiPRoMi", technique: "LiPRoMi"},
		{name: "TWiCe", technique: "TWiCe"},
		{name: "unprotected", technique: ""},
		{name: "PARA-random-policy", technique: "PARA",
			mutate: func(c *Config) { c.Policy = PolicyRandom }},
		{name: "CaPRoMi-remapped", technique: "CaPRoMi",
			mutate: func(c *Config) { c.RemapSwaps = 8 }},
	})
}

// TestRunCtxFaultPlansMatchGoldenTwoBank pins the weak-cell injector
// tick, which must fire exactly once before each serviced access or the
// injector's RNG stream shears away from the device state, and the
// state-upset Harness wrap, on the 2-bank geometry.
func TestRunCtxFaultPlansMatchGoldenTwoBank(t *testing.T) {
	checkGolden(t, shrunkenConfig, []goldenCase{
		{name: "LiPRoMi-weak-cells", technique: "LiPRoMi",
			mutate: withPlan(faults.Plan{Model: faults.WeakCells, Rate: 0.001, Seed: 7})},
		{name: "CaPRoMi-state-seu", technique: "CaPRoMi",
			mutate: withPlan(faults.Plan{Model: faults.StateSEU, Rate: 0.0005, Seed: 11})},
	})
}

// TestRunCtxAllocsIndependentOfLength pins "0 allocs per access" for the
// dispatch loop, the lanes and the mitigations together, for solo runs
// and for groups at the cap: a run four times as long may allocate only
// a bounded handful more objects per member (table growth that
// settles), never a number that scales with the accesses.
// TestActPathAllocFree in internal/mitigation/all covers the mitigations
// alone.
func TestRunCtxAllocsIndependentOfLength(t *testing.T) {
	const maxExtra = 16
	ctx := context.Background()
	techs := append([]string{""}, TechniqueNames()...)
	allocs := func(group []string, windows int) float64 {
		cfg := DefaultConfig()
		cfg.Windows = windows
		members := make([]Member, len(group))
		for i, tech := range group {
			members[i] = Member{Config: cfg, Technique: tech}
		}
		return testing.AllocsPerRun(1, func() {
			if _, err := RunGroup(ctx, members); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tech := range techs {
		short, long := allocs([]string{tech}, 1), allocs([]string{tech}, 4)
		if long-short > maxExtra {
			t.Errorf("%q: RunCtx allocates %.0f objects at 4 windows, %.0f at 1: %.0f more, want at most %d",
				tech, long, short, long-short, maxExtra)
		}
	}
	for g := 0; g < len(techs); g += GroupCap {
		group := techs[g:min(g+GroupCap, len(techs))]
		short, long := allocs(group, 1), allocs(group, 4)
		if limit := maxExtra * len(group); long-short > float64(limit) {
			t.Errorf("group %q: RunGroup allocates %.0f objects at 4 windows, %.0f at 1: %.0f more, want at most %d",
				group, long, short, long-short, limit)
		}
	}
}
