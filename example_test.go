package tivapromi_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"tivapromi"
)

// Build a mitigation by name and inspect its per-bank storage at the
// paper's full DDR4 scale — the 120 B history table of Table III.
func ExampleNewMitigation() {
	m, err := tivapromi.NewMitigation("LoLiPRoMi", tivapromi.Target{
		Banks:         16,
		RowsPerBank:   131072,
		RefInt:        8192,
		FlipThreshold: 139000,
	}, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s uses %d B per bank\n", m.Name(), m.TableBytesPerBank())
	// Output: LoLiPRoMi uses 120 B per bank
}

// Run the standard attack campaign with and without protection.
func ExampleRunSimulation() {
	cfg := tivapromi.DefaultSimConfig()
	cfg.Windows = 1
	cfg.MinAggressors, cfg.MaxAggressors = 2, 2 // focused double-sided attack

	unprotected, err := tivapromi.RunSimulation(cfg, "")
	if err != nil {
		log.Fatal(err)
	}
	protected, err := tivapromi.RunSimulation(cfg, "CaPRoMi")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unprotected flips: %v\n", unprotected.Flips > 0)
	fmt.Printf("protected flips:   %v\n", protected.Flips > 0)
	// Output:
	// unprotected flips: true
	// protected flips:   false
}

// Drive the device and controller directly for white-box experiments.
func ExampleNewController() {
	dev, err := tivapromi.NewDevice(tivapromi.ScaledParams(), nil)
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := tivapromi.NewController(dev, nil)
	if err != nil {
		log.Fatal(err)
	}
	ctl.AccessRow(0, 4096, false) // row miss: activation
	ctl.AccessRow(0, 4096, false) // row hit: no activation
	fmt.Printf("activations: %d, disturbance on 4097: %d\n",
		dev.Stats().Activates, dev.Disturbance(0, 4097))
	// Output: activations: 1, disturbance on 4097: 1
}

// Simulate a Row-Hammer attack on a DDR4 system twice — once
// unprotected, once protected by LoLiPRoMi (the paper's area-optimal
// variant) — and compare bit flips and activation overhead.
func Example_quickstart() {
	cfg := tivapromi.DefaultSimConfig()
	cfg.Windows = 2
	// A focused double-sided attack (two aggressor rows per targeted
	// bank, sustained) — the classic Row-Hammer pattern, guaranteed to
	// flip on an unprotected device.
	cfg.MinAggressors, cfg.MaxAggressors = 2, 2

	unprotected, err := tivapromi.RunSimulation(cfg, "")
	if err != nil {
		log.Fatal(err)
	}
	protected, err := tivapromi.RunSimulation(cfg, "LoLiPRoMi")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Row-Hammer attack, mixed workload + ramping aggressors:")
	fmt.Printf("  unprotected: %8d activations, %d bit flips\n",
		unprotected.TotalActs, unprotected.Flips)
	fmt.Printf("  LoLiPRoMi:   %8d activations, %d bit flips, %.4f%% extra activations, %d B table per bank\n",
		protected.TotalActs, protected.Flips, protected.OverheadPct, protected.TableBytes)

	switch {
	case unprotected.Flips == 0:
		fmt.Println("the unprotected system did not flip: the attack is too weak.")
	case protected.Flips != 0:
		fmt.Println("LoLiPRoMi did not stop the attack.")
	default:
		fmt.Println("LoLiPRoMi stopped the attack.")
	}
	// Output:
	// Row-Hammer attack, mixed workload + ramping aggressors:
	//   unprotected:   303880 activations, 3 bit flips
	//   LoLiPRoMi:     303887 activations, 0 bit flips, 0.0263% extra activations, 96 B table per bank
	// LoLiPRoMi stopped the attack.
}

// A double-sided Row-Hammer attack at the device level: hammer both
// neighbors of a victim row at full rate for one refresh window and
// report how far the victim's disturbance climbs under each TiVaPRoMi
// variant — and that it climbs to a bit flip with no mitigation. This is
// the microscope view of what the harness measures in aggregate.
func Example_attackDefense() {
	params := tivapromi.ScaledParams()
	victim := params.RowsPerBank / 2
	fmt.Printf("double-sided attack on victim row %d (flip threshold %d, %d intervals per window)\n\n",
		victim, params.FlipThreshold, params.RefInt)

	for _, technique := range []string{"none", "LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"} {
		dev, ctl := attackedSystem(params, technique, 42)

		// Hammer loop: alternate the two aggressors as fast as the bank
		// timing allows; the controller clock fires refresh intervals.
		const bank = 0
		aggressors := [2]int{victim - 1, victim + 1}
		peak := uint32(0)
		for i := 0; dev.Window() < 1; i++ {
			ctl.AccessRow(bank, aggressors[i&1], false)
			if d := dev.Disturbance(bank, victim); d > peak {
				peak = d
			}
		}

		extra := ctl.Stats().ActN + ctl.Stats().ActNOne + ctl.Stats().RefreshRow
		fmt.Printf("%-10s peak victim disturbance %6d (%.0f%% of threshold), extra activation commands %3d, flips %d\n",
			technique, peak, 100*float64(peak)/float64(params.FlipThreshold),
			extra, len(dev.Flips()))
	}
	// Output:
	// double-sided attack on victim row 8192 (flip threshold 40960, 1024 intervals per window)
	//
	// none       peak victim disturbance  84937 (207% of threshold), extra activation commands   0, flips 3
	// LiPRoMi    peak victim disturbance  30169 (74% of threshold), extra activation commands  12, flips 0
	// LoPRoMi    peak victim disturbance  29289 (72% of threshold), extra activation commands  14, flips 0
	// LoLiPRoMi  peak victim disturbance  30169 (74% of threshold), extra activation commands  12, flips 0
	// CaPRoMi    peak victim disturbance  26984 (66% of threshold), extra activation commands  19, flips 0
}

// The attack at the data level — the reason Row-Hammer matters at all
// (Flip Feng Shui [15]): a victim row stores a value the attacker must
// not control (think: a page-table entry or an RSA modulus), the
// attacker hammers the two adjacent rows, and the stored bits change
// without the victim row ever being addressed. With a mitigation
// attached, the same hammering leaves the data intact.
func Example_corruption() {
	params := tivapromi.ScaledParams()
	secret := []byte("page-table-entry: r/o 0x00007f3a")

	for _, technique := range []string{"none", "LoLiPRoMi"} {
		dev, ctl := attackedSystem(params, technique, 7)
		dev.EnableDataStore(42)

		// The victim's data lives in bank 0; the attacker knows only that
		// it is adjacent to rows it can reach.
		const bank, victim = 0, 9000
		dev.WriteData(bank, victim, 128, secret)

		// Hammer for one full refresh window.
		for dev.Window() < 1 {
			ctl.AccessRow(bank, victim-1, false)
			ctl.AccessRow(bank, victim+1, false)
		}
		corrupted := !bytes.Equal(dev.ReadData(bank, victim, 128, len(secret)), secret) ||
			dev.Corruptions() > 0

		fmt.Printf("%-10s stored data corrupted: %v\n", technique, corrupted)
		if technique == "none" && !corrupted {
			fmt.Println("expected corruption without mitigation")
		}
		if technique != "none" && corrupted {
			fmt.Println("mitigation failed to protect the data")
		}
	}
	fmt.Println("\nthe victim row was never addressed by the attacker — only its neighbors.")
	// Output:
	// none       stored data corrupted: true
	// LoLiPRoMi  stored data corrupted: false
	//
	// the victim row was never addressed by the attacker — only its neighbors.
}

// attackedSystem builds a scaled device and a controller protected by
// technique ("none" for an unprotected system) with the given seed.
func attackedSystem(params tivapromi.Params, technique string, seed uint64) (*tivapromi.Device, *tivapromi.Controller) {
	dev, err := tivapromi.NewDevice(params, nil)
	if err != nil {
		log.Fatal(err)
	}
	var mit tivapromi.Mitigator
	if technique != "none" {
		mit, err = tivapromi.NewMitigation(technique, tivapromi.Target{
			Banks:         params.Banks,
			RowsPerBank:   params.RowsPerBank,
			RefInt:        params.RefInt,
			FlipThreshold: params.FlipThreshold,
		}, seed)
		if err != nil {
			log.Fatal(err)
		}
	}
	ctl, err := tivapromi.NewController(dev, mit)
	if err != nil {
		log.Fatal(err)
	}
	return dev, ctl
}

// Run every paper technique on the same mixed workload + attacker and
// print the storage/overhead trade-off the paper's Fig. 4 visualizes:
// TiVaPRoMi sits between the cheap-but-noisy probabilistic schemes and
// the accurate-but-huge tabled counters.
func Example_policyComparison() {
	cfg := tivapromi.DefaultSimConfig()
	seeds := tivapromi.Seeds(7, 3)

	type row struct {
		name     string
		overhead float64
		fpr      float64
		table    int
		flips    int
	}
	var rows []row
	for _, name := range tivapromi.PaperTechniques() {
		sum, err := tivapromi.RunSeeds(cfg, name, seeds)
		if err != nil {
			log.Fatal(err)
		}
		// Report storage at full paper scale (1 GB banks), like Fig. 4.
		m, err := tivapromi.NewMitigation(name, tivapromi.Target{
			Banks: 16, RowsPerBank: 131072, RefInt: 8192, FlipThreshold: 139000,
		}, 1)
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{
			name:     name,
			overhead: sum.Overhead.Mean(),
			fpr:      sum.FPR.Mean(),
			table:    m.TableBytesPerBank(),
			flips:    sum.TotalFlips,
		})
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].overhead < rows[j].overhead })
	fmt.Println("technique   table/bank   overhead    FPR       flips")
	for _, r := range rows {
		fmt.Printf("%-10s  %8d B   %.4f%%   %.4f%%   %d\n",
			r.name, r.table, r.overhead, r.fpr, r.flips)
	}

	// The Pareto check the paper's Fig. 4 makes visually: no technique
	// from the literature dominates a TiVaPRoMi variant in BOTH table
	// size and overhead — the family is the compromise between cheap,
	// noisy probabilistic schemes and accurate, huge tabled counters.
	fmt.Println()
	family := map[string]bool{"LiPRoMi": true, "LoPRoMi": true, "LoLiPRoMi": true, "CaPRoMi": true}
	for _, tiva := range []string{"LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"} {
		dominated := false
		var ti row
		for _, r := range rows {
			if r.name == tiva {
				ti = r
			}
		}
		for _, r := range rows {
			if !family[r.name] && r.table <= ti.table && r.overhead <= ti.overhead {
				dominated = true
				fmt.Printf("%s is dominated by %s\n", tiva, r.name)
			}
		}
		if !dominated {
			fmt.Printf("%s: no prior technique beats it on both table size and overhead\n", tiva)
		}
	}
	// Output:
	// technique   table/bank   overhead    FPR       flips
	// TWiCe           3300 B   0.0051%   0.0000%   0
	// CRA           262144 B   0.0051%   0.0000%   0
	// LiPRoMi          120 B   0.0243%   0.0135%   0
	// LoLiPRoMi        120 B   0.0283%   0.0173%   0
	// CaPRoMi          432 B   0.0311%   0.0180%   0
	// LoPRoMi          120 B   0.0312%   0.0180%   0
	// PARA               0 B   0.0954%   0.0289%   0
	// MRLoc             34 B   0.1548%   0.0313%   0
	// ProHit            17 B   0.6792%   0.1919%   0
	//
	// LiPRoMi: no prior technique beats it on both table size and overhead
	// LoPRoMi: no prior technique beats it on both table size and overhead
	// LoLiPRoMi: no prior technique beats it on both table size and overhead
	// CaPRoMi: no prior technique beats it on both table size and overhead
}

// The Section IV flooding experiment: an attacker floods act commands to
// one row at the maximum DDR4 rate starting right after the row's
// refresh (the adversarial phase for time-varying weights), and we
// measure how many activations pass before each TiVaPRoMi variant first
// protects the neighbors. The paper's finding: the logarithmic variants
// react early, LiPRoMi significantly later — its Table III
// vulnerability.
func Example_flooding() {
	p := tivapromi.PaperParams()
	fmt.Printf("flooding one row at %d activations per refresh interval (paper scale)\n",
		p.MaxActsPerRI)
	fmt.Printf("safe bound: %d activations (half the %d flip threshold)\n\n",
		p.FlipThreshold/2, p.FlipThreshold)

	for _, technique := range []string{"LoPRoMi", "LoLiPRoMi", "CaPRoMi", "LiPRoMi"} {
		res, err := tivapromi.Flood(technique, p, p.MaxActsPerRI, 15, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s first protection: median %6.0f acts, p90 %6.0f\n",
			technique, res.MedianActs, res.P90Acts)
	}

	// Medians from a handful of trials are noisy; the decisive metric is
	// the exact survival probability of the flood reaching the full flip
	// threshold, which the vulnerability analyzer computes from each
	// variant's decision law.
	fmt.Println("\nvulnerability classification (Table III column):")
	for _, technique := range []string{"LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"} {
		rep, err := tivapromi.AnalyzeVulnerability(technique, p, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s flood survival %.2e  vulnerable=%v (%s)\n",
			technique, rep.FloodSurvival, rep.Vulnerable, rep.Reason)
	}
	// Output:
	// flooding one row at 165 activations per refresh interval (paper scale)
	// safe bound: 69500 activations (half the 139000 flip threshold)
	//
	// LoPRoMi    first protection: median  39503 acts, p90  73905
	// LoLiPRoMi  first protection: median  39503 acts, p90  73905
	// CaPRoMi    first protection: median  38115 acts, p90  60390
	// LiPRoMi    first protection: median  58140 acts, p90  80980
	//
	// vulnerability classification (Table III column):
	// LiPRoMi    flood survival 9.38e-04  vulnerable=true (weight-aware flooding leaves a non-negligible survival tail)
	// LoPRoMi    flood survival 4.14e-05  vulnerable=false (no probe succeeded)
	// LoLiPRoMi  flood survival 4.14e-05  vulnerable=false (no probe succeeded)
	// CaPRoMi    flood survival 3.76e-05  vulnerable=false (no probe succeeded)
}

// SampledPARA evaluates PARA's coin only on every Nth activation, with
// the probability scaled by N to keep the expected refresh rate: same
// expected overhead, 1/Nth the random-number draws — the kind of
// micro-variant a hardware team might prototype.
type SampledPARA struct {
	every int
	p     float64
	count int
	src   *rand.Rand
	seed  uint64
}

// NewSampledPARA builds the technique; every is the sampling period. The
// base probability is PARA's 9.77e-4 (RefInt * Pbase), scaled by the
// sampling period.
func NewSampledPARA(every int, seed uint64) *SampledPARA {
	s := &SampledPARA{
		every: every,
		p:     float64(every) * 9.77e-4,
		seed:  seed,
	}
	s.Reset()
	return s
}

// The Mitigator contract: observe act/ref commands, emit maintenance
// commands, clear per-window state, reproduce from a seed.

func (s *SampledPARA) Name() string { return "SampledPARA" }

func (s *SampledPARA) OnActivate(bank, row, _ int, cmds []tivapromi.Command) []tivapromi.Command {
	s.count++
	if s.count%s.every != 0 {
		return cmds
	}
	if s.src.Float64() >= s.p {
		return cmds
	}
	side := int8(1)
	if s.src.Intn(2) == 0 {
		side = -1
	}
	return append(cmds, tivapromi.Command{
		Kind: tivapromi.ActNOne, Bank: bank, Row: row, Side: side,
	})
}

func (s *SampledPARA) OnRefreshInterval(_ int, cmds []tivapromi.Command) []tivapromi.Command {
	return cmds
}

func (s *SampledPARA) OnNewWindow() {}

func (s *SampledPARA) Reset() {
	s.count = 0
	s.src = rand.New(rand.NewSource(int64(s.seed)))
}

func (s *SampledPARA) TableBytesPerBank() int { return 0 }

// The extensibility tutorial: implement a new Row-Hammer mitigation
// (SampledPARA, above) against the Mitigator interface and run it
// through the full experiment harness by assigning a factory to
// SimConfig.Factory — using only the public façade.
func Example_customMitigation() {
	cfg := tivapromi.DefaultSimConfig()
	cfg.Windows = 2
	cfg.MinAggressors, cfg.MaxAggressors = 2, 2

	fmt.Println("SampledPARA (every Nth activation, N-times probability) vs PARA:")
	for _, every := range []int{1, 4, 16, 64} {
		cfg.Factory = func(_ tivapromi.Target, seed uint64) tivapromi.Mitigator {
			return NewSampledPARA(every, seed)
		}
		sum, err := tivapromi.RunSeeds(cfg, "custom", tivapromi.Seeds(3, 3))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  N=%-3d overhead %.4f%%  flips %d\n",
			every, sum.Overhead.Mean(), sum.TotalFlips)
	}
	fmt.Println()
	fmt.Println("the harness answers the design question directly: sampling keeps the")
	fmt.Println("expected overhead constant while the flips column shows where (or")
	fmt.Println("whether) protection breaks as the coin flips get coarser.")
	// Output:
	// SampledPARA (every Nth activation, N-times probability) vs PARA:
	//   N=1   overhead 0.0968%  flips 0
	//   N=4   overhead 0.1017%  flips 0
	//   N=16  overhead 0.0993%  flips 0
	//   N=64  overhead 0.0987%  flips 0
	//
	// the harness answers the design question directly: sampling keeps the
	// expected overhead constant while the flips column shows where (or
	// whether) protection breaks as the coin flips get coarser.
}
