// Command tivasim runs one Row-Hammer mitigation simulation and prints
// the measured metrics, records the configured workload's activation
// trace, or replays a trace under one or more techniques. One flag set
// builds one sim.Config for all three.
//
//	tivasim -technique LoLiPRoMi -windows 4 -seeds 5   # run
//	tivasim -technique all                             # ... every technique, plus none
//	tivasim -technique PARA -policy random -aggressors 8
//	tivasim -record trace.bin -windows 2               # record the workload (first seed)
//	tivasim -replay trace.bin -technique all           # replay under the configured device
//	tivasim -analyze trace.bin                         # activation-concentration profile
//	tivasim -totext trace.bin -o t.txt                 # export for external tools
//	tivasim -fromtext t.txt -o t.bin                   # import (e.g. converted Ramulator traces)
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
	record     = flag.String("record", "", "record the configured workload's activation trace (first seed) to this file")
	replay     = flag.String("replay", "", "replay a recorded trace file instead of simulating")
	analyze    = flag.String("analyze", "", "print the activation profile of a trace file")
	toText     = flag.String("totext", "", "convert a binary trace to the text format (writes to -o)")
	fromText   = flag.String("fromtext", "", "convert a text trace to the binary format (writes to -o)")
	out        = flag.String("o", "", "output file of -totext and -fromtext")
)

// baseSeed is the first of the run mode's seeds, and the seed -record
// records at.
const baseSeed = 1

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tivasim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	switch {
	case *analyze != "":
		return printProfile(w, *analyze)
	case *toText != "" || *fromText != "":
		return convert(w, *toText, *fromText, *out)
	}
	cfg, err := config()
	if err != nil {
		return err
	}
	names := techniqueNames(*technique)
	switch {
	case *record != "":
		return recordTrace(w, *record, cfg)
	case *replay != "":
		return replayTrace(w, *replay, names, cfg)
	}

	t := report.NewTable(
		fmt.Sprintf("tivasim — %d windows, policy %v, attack share %.0f%%, up to %d aggressors/bank",
			cfg.Windows, cfg.Policy, 100*cfg.AttackShare, cfg.MaxAggressors),
		"technique", "overhead", "FPR", "flips", "table/bank", "acts", "avg acts/interval")
	for _, name := range names {
		sum, err := sim.RunSeeds(cfg, name, sim.Seeds(baseSeed, *seedCount))
		if err != nil {
			return err
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
	return t.Render(w)
}

// config builds the one sim.Config the flags describe.
func config() (sim.Config, error) {
	cfg := sim.DefaultConfig()
	cfg.Windows = *windows
	cfg.AttackShare = *share
	cfg.MaxAggressors = *aggressors
	cfg.RemapSwaps = *remap
	cfg.Seed = baseSeed
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
		return cfg, fmt.Errorf("unknown policy %q", *policyName)
	}
	return cfg, nil
}

// techniqueNames resolves the -technique flag: "all" is the unprotected
// baseline plus the paper's nine techniques, anything else a
// comma-separated list of registered names in which "none" is the
// baseline ("").
func techniqueNames(spec string) []string {
	if spec == "all" {
		return append([]string{""}, sim.TechniqueNames()...)
	}
	names := strings.Split(spec, ",")
	for i, name := range names {
		if name == "none" {
			names[i] = ""
		}
	}
	return names
}

// recordTrace writes the activation trace of cfg's workload to path, the
// equivalent of capturing a gem5 run for later replay.
func recordTrace(w io.Writer, path string, cfg sim.Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw, err := trace.NewWriter(f, trace.Header{
		Banks:       cfg.Params.Banks,
		RowsPerBank: cfg.Params.RowsPerBank,
		RefInt:      cfg.Params.RefInt,
	})
	if err == nil {
		err = sim.RecordTrace(cfg, tw)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "wrote %d events to %s\n", tw.Events(), path)
	return err
}

// replayTrace replays the trace at path once per technique under cfg's
// flip threshold (the one -record's device had) and renders one table
// row each to w.
func replayTrace(w io.Writer, path string, names []string, cfg sim.Config) error {
	t := report.NewTable(fmt.Sprintf("replay of %s", path),
		"technique", "overhead", "flips", "acts", "avg acts/interval")
	for _, name := range names {
		res, err := replayOne(path, name, cfg.Params.FlipThreshold)
		if err != nil {
			return err
		}
		t.Add(res.Technique, report.Pct(res.OverheadPct), fmt.Sprint(res.Flips),
			fmt.Sprint(res.TotalActs), fmt.Sprintf("%.1f", res.AvgActsPerInterval))
	}
	return t.Render(w)
}

func replayOne(path, technique string, flipThreshold uint32) (sim.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return sim.Result{}, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.ReplayTrace(r, technique, flipThreshold)
}

// printProfile renders the activation profile of the trace at path.
func printProfile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	p, err := trace.Analyze(r)
	if err != nil {
		return err
	}
	return p.Render(w)
}

// convert moves a trace between the binary and text formats.
func convert(w io.Writer, toTextPath, fromTextPath, outPath string) error {
	if outPath == "" {
		return fmt.Errorf("conversion needs -o")
	}
	dst, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer dst.Close()
	if toTextPath != "" {
		src, err := os.Open(toTextPath)
		if err != nil {
			return err
		}
		defer src.Close()
		r, err := trace.NewReader(src)
		if err != nil {
			return err
		}
		return trace.WriteText(r, dst)
	}
	src, err := os.Open(fromTextPath)
	if err != nil {
		return err
	}
	defer src.Close()
	_, n, err := trace.ReadText(src, dst)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "wrote %d events to %s\n", n, outPath)
	return err
}
