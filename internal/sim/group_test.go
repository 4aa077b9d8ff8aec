package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"tivapromi/internal/core"
	"tivapromi/internal/faults"
	"tivapromi/internal/mitigation"
)

// groupMembers lists members over one stream key that differ in every
// field outside it: the unprotected system, every registry technique,
// the three ablation factories, every fault model (each on a technique
// it reaches), the three non-default policies and a remapped device.
func groupMembers(base Config) []Member {
	var ms []Member
	add := func(tech string, mutate func(*Config)) {
		c := base
		if mutate != nil {
			mutate(&c)
		}
		ms = append(ms, Member{Config: c, Technique: tech, Cell: fmt.Sprintf("member-%d", len(ms))})
	}
	add("", nil)
	for _, name := range mitigation.Names() {
		add(name, nil)
	}
	add("ablation", func(c *Config) {
		c.Factory, c.FactoryLabel = HistoryAblationFactory(core.LoLiPRoMi, 16), HistoryAblationLabel(core.LoLiPRoMi, 16)
	})
	add("ablation", func(c *Config) {
		c.Factory, c.FactoryLabel = CounterAblationFactory(32), CounterAblationLabel(32)
	})
	add("ablation", func(c *Config) {
		c.Factory, c.FactoryLabel = PbaseAblationFactory(core.LoLiPRoMi, 1), PbaseAblationLabel(core.LoLiPRoMi, 1)
	})
	reached := map[faults.Model]string{
		faults.StateSEU:    "CaPRoMi",
		faults.StuckRNG:    "PARA",
		faults.BiasedRNG:   "LoLiPRoMi",
		faults.PeriodicRNG: "LiPRoMi",
		faults.DropActN:    "PARA",
		faults.DelayActN:   "TWiCe",
		faults.WeakCells:   "LoPRoMi",
	}
	for _, m := range faults.Models() {
		plan := faults.Plan{Model: m, Rate: 0.01, Seed: 0xfa0175}
		add(reached[m], func(c *Config) { c.Fault = plan })
	}
	for _, pol := range Policies()[1:] {
		add("LiPRoMi", func(c *Config) { c.Policy = pol })
	}
	add("CaPRoMi", func(c *Config) { c.RemapSwaps = 16 })
	return ms
}

// TestRunGroupMatchesRunCtx is the driver's differential test: every
// member's Result, run in groups of 1, 2 and GroupCap, equals its solo
// RunCtx — on the 4-bank and the 2-bank geometry, at two seeds each.
func TestRunGroupMatchesRunCtx(t *testing.T) {
	ctx := context.Background()
	for _, geom := range []struct {
		name string
		cfg  func() Config
	}{{"4-bank", shardConfig}, {"2-bank", shrunkenConfig}} {
		for _, seed := range Seeds(11, 2) {
			base := geom.cfg()
			base.Seed = seed
			members := groupMembers(base)
			solo := make([]Result, len(members))
			for i, m := range members {
				res, err := RunCtx(ctx, m.Config, m.Technique)
				if err != nil {
					t.Fatalf("%s seed %#x %s: %v", geom.name, seed, m.Cell, err)
				}
				solo[i] = res
			}
			for _, n := range []int{1, 2, GroupCap} {
				for g := 0; g < len(members); g += n {
					group := members[g:min(g+n, len(members))]
					got, err := RunGroup(ctx, group)
					if err != nil {
						t.Fatalf("%s seed %#x group of %d at %d: %v", geom.name, seed, n, g, err)
					}
					for k, res := range got {
						if want := solo[g+k]; res != want {
							t.Errorf("%s seed %#x group of %d: %s (%q) diverged from solo RunCtx\n got: %+v\nwant: %+v",
								geom.name, seed, n, group[k].Cell, group[k].Technique, res, want)
						}
					}
				}
			}
		}
	}
}

// TestRunGroupRejectsMixedStreams: members whose stream keys differ are
// a permanent error, never a panic or a silently shared stream.
func TestRunGroupRejectsMixedStreams(t *testing.T) {
	base := shrunkenConfig()
	for name, mutate := range map[string]func(*Config){
		"seed":         func(c *Config) { c.Seed++ },
		"windows":      func(c *Config) { c.Windows++ },
		"attack banks": func(c *Config) { c.AttackBanks = []int{0} },
		"ramp":         func(c *Config) { c.MaxAggressors = 4 },
		"share":        func(c *Config) { c.AttackShare = 0.5 },
		"params":       func(c *Config) { c.Params.RowsPerBank = 2048 },
	} {
		other := base
		mutate(&other)
		_, err := RunGroup(context.Background(), []Member{
			{Config: base, Technique: "PARA"}, {Config: other, Technique: "PARA"},
		})
		if !errors.Is(err, ErrPermanent) {
			t.Errorf("%s: RunGroup err = %v, want a permanent error", name, err)
		}
	}
	if _, err := RunGroup(context.Background(), nil); err == nil {
		t.Error("empty group accepted")
	}
}

// TestGroupFailureIsolation: a member whose factory panics fails alone —
// after the failed group attempt, every member re-runs under the
// per-run hardening, so the others' Summaries equal their solo sweeps
// and the panicking member's RunErrors look as they would solo.
func TestGroupFailureIsolation(t *testing.T) {
	ctx := context.Background()
	rc := DefaultRunnerConfig()
	rc.Retries = 1
	rc.Backoff = time.Microsecond
	r := &Runner{Config: rc}
	base := shrunkenConfig()
	seeds := Seeds(3, 2)
	boom := base
	boom.Factory = func(mitigation.Target, uint64) mitigation.Mitigator { panic("factory exploded") }
	members := []Member{
		{Config: base, Technique: "PARA"},
		{Config: boom, Technique: "boom"},
		{Config: base, Technique: "LoLiPRoMi"},
	}
	out, err := r.RunGroupSeeds(ctx, members, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		want, runErrs, err := r.RunSeeds(ctx, members[i].Config, members[i].Technique, seeds)
		if err != nil || len(runErrs) != 0 {
			t.Fatalf("solo %s: %v %v", members[i].Technique, err, runErrs)
		}
		if got := out[i]; got.Err != nil || len(got.RunErrors) != 0 || !reflect.DeepEqual(got.Summary, want) {
			t.Errorf("%s beside a panicking member: err %v, run errors %v, summary equal to solo: %v",
				members[i].Technique, got.Err, got.RunErrors, reflect.DeepEqual(got.Summary, want))
		}
	}
	boomed := out[1]
	if len(boomed.RunErrors) != len(seeds) || len(boomed.Summary.Runs) != 0 {
		t.Fatalf("panicking member: %d run errors, %d results; want %d errors", len(boomed.RunErrors), len(boomed.Summary.Runs), len(seeds))
	}
	for _, re := range boomed.RunErrors {
		var pe *PanicError
		if !errors.As(re, &pe) || re.Attempts != rc.Retries+1 {
			t.Errorf("run error %v (attempts %d), want a PanicError after %d attempts", re, re.Attempts, rc.Retries+1)
		}
	}
}

// TestRidersMatchSolo: for every registry technique and the unprotected
// system, a group of a healthy host and its riders gives every rider its
// solo RunCtx Result bit for bit — policy and remap mirrors, a
// weak-cells mirror, drop/delay riders whose certificate passes, and
// riders whose certificate fails and re-run live. PARA's riders at 1e-2
// fail in every evaluation run, but this window carries only a few PARA
// commands per lane, so the test's failing riders run PARA at 0.5.
func TestRidersMatchSolo(t *testing.T) {
	ctx := context.Background()
	var total rideCounts
	paraFailed := 0
	for _, seed := range Seeds(21, 2) {
		base := shardConfig()
		base.Seed = seed
		for _, tech := range append([]string{""}, mitigation.Names()...) {
			members := []Member{{Config: base, Technique: tech, Cell: "host"}}
			add := func(cell string, mutate func(*Config)) {
				c := base
				mutate(&c)
				members = append(members, Member{Config: c, Technique: tech, Cell: cell})
			}
			add("remapped", func(c *Config) { c.Policy, c.RemapSwaps = PolicyRemapped, 16 })
			add("random", func(c *Config) { c.Policy = PolicyRandom })
			add("counter+mask", func(c *Config) { c.Policy = PolicyMaskedCounter })
			add("remap", func(c *Config) { c.RemapSwaps = 16 })
			add("weak", func(c *Config) { c.Fault = faults.Plan{Model: faults.WeakCells, Rate: 1e-3, Seed: 5} })
			rates := []float64{1e-4}
			if tech == "PARA" {
				rates = append(rates, 0.5)
			}
			for _, rate := range rates {
				for _, m := range []faults.Model{faults.DropActN, faults.DelayActN} {
					add(fmt.Sprintf("%s@%g", m, rate), func(c *Config) { c.Fault = faults.Plan{Model: m, Rate: rate, Seed: 5} })
				}
			}
			got, rc, err := runGroup(ctx, members)
			if err != nil {
				t.Fatalf("seed %#x %q: %v", seed, tech, err)
			}
			if rc.mirrors != 5 || rc.certified+rc.failed != 2*len(rates) {
				t.Fatalf("seed %#x %q: %+v; want 5 mirrors and %d certified riders", seed, tech, rc, 2*len(rates))
			}
			total.mirrors += rc.mirrors
			total.certified += rc.certified
			total.failed += rc.failed
			if tech == "PARA" {
				paraFailed += rc.failed
			}
			for i, m := range members {
				want, err := RunCtx(ctx, m.Config, m.Technique)
				if err != nil {
					t.Fatalf("seed %#x %q %s: %v", seed, tech, m.Cell, err)
				}
				if got[i] != want {
					t.Errorf("seed %#x %q %s: rider diverged from solo RunCtx\n got: %+v\nwant: %+v", seed, tech, m.Cell, got[i], want)
				}
			}
		}
	}
	if total.certified == 0 || total.failed == 0 || paraFailed < 4 {
		t.Fatalf("certificates: %+v, PARA failures %d; want passes, failures, and PARA's riders at 0.5 failing", total, paraFailed)
	}
	t.Logf("riders: %+v", total)
}
