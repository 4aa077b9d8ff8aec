// Command tivasim runs one Row-Hammer mitigation simulation and prints
// the measured metrics.
//
//	tivasim -technique LoLiPRoMi -windows 4 -seeds 5
//	tivasim -technique none                      # unprotected baseline
//	tivasim -technique all                       # all nine techniques
//	tivasim -technique PARA -policy random -aggressors 8
//	tivasim -replay trace.bin -technique TWiCe   # replay a recorded trace
//	tivasim -replay trace.bin -technique all     # ... under every technique
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tivapromi/internal/dram"
	"tivapromi/internal/report"
	"tivapromi/internal/sim"
	"tivapromi/internal/trace"
)

var (
	technique  = flag.String("technique", "LoLiPRoMi", "mitigation technique, 'none', or 'all'")
	windows    = flag.Int("windows", 4, "refresh windows to simulate")
	seedCount  = flag.Int("seeds", 3, "seeds (runs) per technique")
	policyName = flag.String("policy", "neighbors", "refresh policy: neighbors|remapped|random|mask")
	paper      = flag.Bool("paper", false, "full Table I scale (slow)")
	share      = flag.Float64("share", 0.65, "attacker share of the access stream")
	aggressors = flag.Int("aggressors", 20, "maximum aggressors per targeted bank")
	remap      = flag.Int("remap", 0, "spare-row remap swaps on the device")
	replay     = flag.String("replay", "", "replay a recorded trace file instead of simulating")
)

func main() {
	flag.Parse()
	names := techniqueNames(*technique)
	if *replay != "" {
		if err := replayTrace(os.Stdout, *replay, names); err != nil {
			fatal(err)
		}
		return
	}

	cfg := sim.DefaultConfig()
	cfg.Windows = *windows
	cfg.AttackShare = *share
	cfg.MaxAggressors = *aggressors
	cfg.RemapSwaps = *remap
	if *paper {
		cfg.Params = dram.PaperParams()
	}
	switch *policyName {
	case "neighbors":
		cfg.Policy = sim.PolicyNeighbors
	case "remapped":
		cfg.Policy = sim.PolicyRemapped
	case "random":
		cfg.Policy = sim.PolicyRandom
	case "mask":
		cfg.Policy = sim.PolicyMaskedCounter
	default:
		fatal(fmt.Errorf("unknown policy %q", *policyName))
	}

	t := report.NewTable(
		fmt.Sprintf("tivasim — %d windows, policy %v, attack share %.0f%%, up to %d aggressors/bank",
			cfg.Windows, cfg.Policy, 100*cfg.AttackShare, cfg.MaxAggressors),
		"technique", "overhead", "FPR", "flips", "table/bank", "acts", "avg acts/interval")
	for _, name := range names {
		sum, err := sim.RunSeeds(cfg, name, sim.Seeds(1, *seedCount))
		if err != nil {
			fatal(err)
		}
		r := sum.Runs[0]
		t.Add(sum.Technique,
			report.PctErr(sum.Overhead.Mean(), sum.Overhead.StdDev()),
			report.Pct(sum.FPR.Mean()),
			fmt.Sprint(sum.TotalFlips),
			report.Bytes(sum.TableBytes),
			fmt.Sprint(sum.TotalActs),
			fmt.Sprintf("%.1f", r.AvgActsPerInterval))
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

// techniqueNames resolves the -technique flag: "all" is the unprotected
// baseline plus the paper's nine techniques, "none" the baseline alone
// (""), anything else a comma-separated list of registered names.
func techniqueNames(spec string) []string {
	switch spec {
	case "all":
		return append([]string{""}, sim.TechniqueNames()...)
	case "none":
		return []string{""}
	}
	return strings.Split(spec, ",")
}

// replayTrace replays the trace at path once per technique and renders
// one table row each to w.
func replayTrace(w io.Writer, path string, names []string) error {
	t := report.NewTable(fmt.Sprintf("replay of %s", path),
		"technique", "overhead", "flips", "acts", "avg acts/interval")
	for _, name := range names {
		res, err := replayOne(path, name)
		if err != nil {
			return err
		}
		t.Add(res.Technique, report.Pct(res.OverheadPct), fmt.Sprint(res.Flips),
			fmt.Sprint(res.TotalActs), fmt.Sprintf("%.1f", res.AvgActsPerInterval))
	}
	return t.Render(w)
}

func replayOne(path, technique string) (sim.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return sim.Result{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.ReplayTrace(r, technique, 0)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tivasim:", err)
	os.Exit(1)
}
