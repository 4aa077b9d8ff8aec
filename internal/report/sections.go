// Sections: the paper's evaluation as a registry of (spec builder,
// renderer) pairs. Every section's computation is declared as a
// campaign.Spec and executed by the campaign scheduler; rendering is a
// pure function of the resulting campaign.ResultSet, so tables come out
// byte-identical whatever the worker count or cell completion order —
// this file is the single table-assembly path for the whole evaluation.
package report

import (
	"fmt"
	"io"
	"os"

	"tivapromi/internal/campaign"
	"tivapromi/internal/dram"
	"tivapromi/internal/faults"
	"tivapromi/internal/fsm"
	"tivapromi/internal/hwmodel"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/sim"
)

// Context carries everything a section renderer needs: the evaluation
// knobs, the executed campaign's results, and the output options.
type Context struct {
	Eval    campaign.Eval
	Results *campaign.ResultSet
	CSV     bool      // fig4: also print the scatter as CSV
	SVGPath string    // fig4: also write the scatter as an SVG file
	SVGSink io.Writer // fig4: also stream the SVG here (no file, no log line)
}

// SectionDef binds one evaluation section's name to its campaign spec
// builder and its renderer.
type SectionDef struct {
	Name   string
	Spec   func(campaign.Eval) campaign.Spec
	Render func(w io.Writer, rc *Context) error
}

// Sections returns every section of the evaluation in paper order —
// the registry behind `experiments all`.
func Sections() []SectionDef {
	return []SectionDef{
		{"table1", campaign.Table1Spec, renderTable1},
		{"table2", campaign.Table2Spec, renderTable2},
		{"table3", campaign.Table3Spec, renderTable3},
		{"fig4", campaign.Fig4Spec, renderFig4},
		{"flooding", campaign.FloodingSpec, renderFlooding},
		{"refreshpolicies", campaign.PoliciesSpec, renderPolicies},
		{"aggressors", campaign.AggressorsSpec, renderAggressors},
		{"ablation", campaign.AblationSpec, renderAblation},
		{"extensions", campaign.ExtensionsSpec, renderExtensions},
		{"latency", campaign.LatencySpec, renderLatency},
		{"thresholds", campaign.ThresholdsSpec, renderThresholds},
		{"faults", campaign.FaultsSpec, renderFaults},
	}
}

// Section returns one registered section by name.
func Section(name string) (SectionDef, bool) {
	for _, s := range Sections() {
		if s.Name == name {
			return s, true
		}
	}
	return SectionDef{}, false
}

// paperTarget describes one bank of the full-scale device to mitigation
// factories for storage accounting (table sizes are reported at paper
// scale no matter what scale the simulation ran at). Per-bank table
// bytes do not depend on the bank count, so one bank sizes them without
// building every bank's state.
func paperTarget() mitigation.Target {
	p := dram.PaperParams()
	return mitigation.Target{
		Banks: 1, RowsPerBank: p.RowsPerBank, RefInt: p.RefInt,
		FlipThreshold: p.FlipThreshold,
	}
}

func tableBytesAtPaperScale(technique string) (int, error) {
	f, err := mitigation.Lookup(technique)
	if err != nil {
		return 0, err
	}
	return f(paperTarget(), 1).TableBytesPerBank(), nil
}

// value fetches a probe cell's result pointer with its concrete type.
func value[T any](rc *Context, key string) (*T, error) {
	v, err := rc.Results.Value(key)
	if err != nil {
		return nil, err
	}
	p, ok := v.(*T)
	if !ok {
		return nil, fmt.Errorf("report: cell %q holds %T, not %T", key, v, p)
	}
	return p, nil
}

func renderTable1(w io.Writer, rc *Context) error {
	p := dram.PaperParams()
	t := NewTable("Table I — simulated system specification", "parameter", "value")
	t.Add("Work load", "SPEC-like mixed load (synthetic, see DESIGN.md)")
	t.Add("Number of cores", "4")
	t.Add("L1 / L2 cache size", "64 KB / 256 KB")
	t.Add("DDR4 refresh window", "64 ms")
	t.Add("DDR4 refresh interval", "7.8 us")
	t.Add("DDR4 activation to activation", fmt.Sprintf("%.0f ns", p.TRCNs))
	t.Add("DDR4 refresh time", fmt.Sprintf("%.0f ns", p.TRFCNs))
	t.Add("DDR4 frequency", fmt.Sprintf("%.1f GHz", p.IOFreqGHz))
	t.Add("Refresh intervals per window (RefInt)", fmt.Sprint(p.RefInt))
	t.Add("Rows per bank / per interval", fmt.Sprintf("%d / %d", p.RowsPerBank, p.RowsPerInterval()))
	t.Add("Bit flipping activation threshold", fmt.Sprint(p.FlipThreshold))
	t.Add("Pbase", "2^-23")
	t.Add("RefInt * Pbase", fmt.Sprintf("%.3g", float64(p.RefInt)/float64(1<<23)))
	t.Add("Cycle budget per act / ref", fmt.Sprintf("%d / %d", p.ActCycleBudget(), p.RefCycleBudget()))
	if err := t.Render(w); err != nil {
		return err
	}

	// Measured trace statistics from one unmitigated run at the selected
	// scale, the counterpart of the paper's "175 Million activations /
	// average 40 activations per refresh interval".
	r, err := value[sim.Result](rc, campaign.Table1TraceKey(rc.Eval))
	if err != nil {
		return err
	}
	m := NewTable("Measured trace statistics (this run)", "metric", "value")
	m.Add("Memory activations", fmt.Sprint(r.TotalActs))
	m.Add("Attacker share of activations", fmt.Sprintf("%.0f%%", 100*float64(r.AttackerActs)/float64(r.TotalActs)))
	m.Add("Avg activations per bank-interval", fmt.Sprintf("%.1f", r.AvgActsPerInterval))
	m.Add("Max activations per bank-interval", fmt.Sprint(r.MaxActsPerInterval))
	m.Add("Flips without mitigation", fmt.Sprint(r.Flips))
	return m.Render(w)
}

func renderTable2(w io.Writer, _ *Context) error {
	machines := []struct {
		name string
		m    *fsm.Machine
	}{
		{"CaPRoMi", fsm.Fig3("CaPRoMi", fsm.DefaultCounterConfig())},
		{"LoLiPRoMi", fsm.Fig2("LoLiPRoMi", fsm.LinearConfig{HistoryEntries: 32, OverlappedUpdate: true})},
		{"LoPRoMi", fsm.Fig2("LoPRoMi", fsm.LinearConfig{HistoryEntries: 32})},
		{"LiPRoMi", fsm.Fig2("LiPRoMi", fsm.LinearConfig{HistoryEntries: 32})},
	}
	p := dram.PaperParams()
	t := NewTable(
		fmt.Sprintf("Table II — FSM cycles per observed command (budgets: act %d, ref %d)",
			p.ActCycleBudget(), p.RefCycleBudget()),
		"command", "CaPRoMi", "LoLiPRoMi", "LoPRoMi", "LiPRoMi")
	rowAct := []string{"act"}
	rowRef := []string{"ref"}
	for _, mc := range machines {
		if err := mc.m.Validate(); err != nil {
			return err
		}
		act, _, err := mc.m.WorstCase("act")
		if err != nil {
			return err
		}
		ref, _, err := mc.m.WorstCase("ref")
		if err != nil {
			return err
		}
		if act > p.ActCycleBudget() || ref > p.RefCycleBudget() {
			return fmt.Errorf("%s violates the DDR4 cycle budget", mc.name)
		}
		rowAct = append(rowAct, fmt.Sprint(act))
		rowRef = append(rowRef, fmt.Sprint(ref))
	}
	t.Add(rowAct...)
	t.Add(rowRef...)
	return t.Render(w)
}

func renderTable3(w io.Writer, rc *Context) error {
	geo := hwmodel.PaperGeometry()
	model := hwmodel.DefaultCostModel()
	ddr4, ddr3 := hwmodel.DDR4Target(), hwmodel.DDR3Target()
	resources := map[string]hwmodel.Resources{}
	for _, r := range hwmodel.AllResources(geo) {
		resources[r.Name] = r
	}
	paraLUTs := model.Estimate(resources["PARA"], ddr4).LUTs
	paraLUTs3 := model.Estimate(resources["PARA"], ddr3).LUTs

	t := NewTable("Table III — comparison with state-of-the-art RH mitigation solutions",
		"technique", "LUTs DDR4 (rel)", "LUTs DDR3 (rel)", "vulnerable",
		"activation overhead", "FPR", "flips")
	for _, name := range sim.TechniqueNames() {
		sum, err := rc.Results.Summary(campaign.Table3SweepKey(name))
		if err != nil {
			return err
		}
		vuln, err := value[sim.VulnReport](rc, campaign.Table3VulnKey(rc.Eval, name))
		if err != nil {
			return err
		}
		e4 := model.Estimate(resources[name], ddr4)
		e3 := model.Estimate(resources[name], ddr3)
		t.Add(name,
			fmt.Sprintf("%d (%.1fx)", e4.LUTs, float64(e4.LUTs)/float64(paraLUTs)),
			fmt.Sprintf("%d (%.1fx)", e3.LUTs, float64(e3.LUTs)/float64(paraLUTs3)),
			YesNo(vuln.Vulnerable),
			PctErr(sum.Overhead.Mean(), sum.Overhead.StdDev()),
			Pct(sum.FPR.Mean()),
			fmt.Sprint(sum.TotalFlips))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "note: TWiCe and CRA at DDR3 scale exceed any practical controller budget,")
	fmt.Fprintln(w, "      reproducing the paper's conclusion that they cannot target the FPGA.")
	return nil
}

func renderFig4(w io.Writer, rc *Context) error {
	s := NewScatter("Fig. 4 — table size per bank vs activation overhead (both log scale)",
		"table size per bank [B]", "activation overhead [%]")
	for _, name := range sim.TechniqueNames() {
		sum, err := rc.Results.Summary(campaign.Fig4SweepKey(name))
		if err != nil {
			return err
		}
		bytes, err := tableBytesAtPaperScale(name)
		if err != nil {
			return err
		}
		s.Add(name, float64(bytes), sum.Overhead.Mean())
	}
	if err := s.Render(w); err != nil {
		return err
	}
	if rc.CSV {
		if err := s.WriteCSV(w); err != nil {
			return err
		}
	}
	if rc.SVGSink != nil {
		// The in-memory sink (the campaign server's figure endpoint)
		// deliberately adds no "wrote" line: the text report must stay
		// byte-identical with and without figure capture.
		if err := s.WriteSVG(rc.SVGSink); err != nil {
			return err
		}
	}
	if rc.SVGPath != "" {
		f, err := os.Create(rc.SVGPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.WriteSVG(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", rc.SVGPath)
	}
	return nil
}

func renderFlooding(w io.Writer, rc *Context) error {
	p := rc.Eval.Probe
	t := NewTable(
		fmt.Sprintf("Flooding attack — activations until first protection (paper scale, rate %d/interval, %d trials, safe bound %d)",
			p.MaxActsPerRI, rc.Eval.Trials, p.FlipThreshold/2),
		"technique", "median acts", "p90 acts", "unprotected trials", "all below safe bound")
	for _, name := range sim.TechniqueNames() {
		f, err := value[sim.FloodResult](rc, campaign.FloodKey(rc.Eval, name))
		if err != nil {
			return err
		}
		t.Add(f.Technique,
			fmt.Sprintf("%.0f", f.MedianActs),
			fmt.Sprintf("%.0f", f.P90Acts),
			fmt.Sprint(f.Unprotected),
			YesNo(f.AllSafe()))
	}
	return t.Render(w)
}

func renderPolicies(w io.Writer, rc *Context) error {
	t := NewTable("Refresh-address policies — TiVaPRoMi overhead under the four policies of §IV",
		"technique", "neighbors", "neighbors-remapped", "random", "counter+mask", "max spread", "flips")
	for _, name := range campaign.PolicyTechniques {
		row := []string{name}
		lo, hi := -1.0, -1.0
		flips := 0
		for _, pol := range sim.Policies() {
			sum, err := rc.Results.Summary(campaign.PolicySweepKey(name, pol))
			if err != nil {
				return err
			}
			m := sum.Overhead.Mean()
			row = append(row, Pct(m))
			if lo < 0 || m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
			flips += sum.TotalFlips
		}
		row = append(row, fmt.Sprintf("%.1f%%", 100*(hi-lo)/lo), fmt.Sprint(flips))
		t.Add(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "note: TiVaPRoMi's decisions depend only on the observed act/ref stream and")
	fmt.Fprintln(w, "      its fr assumption, so the overhead is identical by construction; the")
	fmt.Fprintln(w, "      meaningful invariance is the flips column staying at zero even when the")
	fmt.Fprintln(w, "      device refreshes in a different order than the mitigation assumes.")
	return nil
}

func renderAggressors(w io.Writer, rc *Context) error {
	t := NewTable("Aggressor sweep — fixed aggressor count per targeted bank",
		"aggressors", "unmitigated flips", "LoLiPRoMi overhead", "LoLiPRoMi flips",
		"PARA overhead", "PARA flips")
	for _, k := range campaign.AggressorCounts {
		none, err := rc.Results.Summary(campaign.AggressorsSweepKey(k, ""))
		if err != nil {
			return err
		}
		loli, err := rc.Results.Summary(campaign.AggressorsSweepKey(k, "LoLiPRoMi"))
		if err != nil {
			return err
		}
		para, err := rc.Results.Summary(campaign.AggressorsSweepKey(k, "PARA"))
		if err != nil {
			return err
		}
		t.Add(fmt.Sprint(k),
			fmt.Sprint(none.TotalFlips),
			Pct(loli.Overhead.Mean()), fmt.Sprint(loli.TotalFlips),
			Pct(para.Overhead.Mean()), fmt.Sprint(para.TotalFlips))
	}
	return t.Render(w)
}

func renderAblation(w io.Writer, rc *Context) error {
	t := NewTable("Ablation — LoLiPRoMi history-table size (paper choice: 32 entries / 120 B)",
		"history table", "bytes/bank", "overhead", "FPR", "flips")
	for _, size := range campaign.HistorySizes {
		sum, err := rc.Results.Summary(campaign.AblationHistKey(size))
		if err != nil {
			return err
		}
		p := sim.AblationPointOf(fmt.Sprintf("%d entries", size), sum)
		p.TableBytes = sim.HistoryBytesAtPaperScale(size)
		t.Add(p.Label, Bytes(p.TableBytes),
			PctErr(p.OverheadMean, p.OverheadStd), Pct(p.FPRMean),
			fmt.Sprint(p.Flips))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	t = NewTable("Ablation — CaPRoMi counter-table size (paper choice: 64 entries)",
		"counter table", "bytes/bank", "overhead", "FPR", "flips")
	for _, size := range campaign.CounterSizes {
		sum, err := rc.Results.Summary(campaign.AblationCntKey(size))
		if err != nil {
			return err
		}
		p := sim.AblationPointOf(fmt.Sprintf("%d entries", size), sum)
		p.TableBytes = sim.CounterBytesAtPaperScale(size)
		t.Add(p.Label, Bytes(p.TableBytes),
			PctErr(p.OverheadMean, p.OverheadStd), Pct(p.FPRMean),
			fmt.Sprint(p.Flips))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	t = NewTable("Ablation — LoLiPRoMi base probability (paper choice: RefInt*Pbase ≈ 0.001, delta 0)",
		"Pbase scale", "overhead", "FPR", "flips", "flood median (acts)")
	for _, delta := range campaign.PbaseDeltas {
		sum, err := rc.Results.Summary(campaign.AblationPbaseKey(delta))
		if err != nil {
			return err
		}
		p := sim.AblationPointOf(fmt.Sprintf("Pbase x 2^%+d", -delta), sum)
		median, err := value[float64](rc, campaign.AblationPbaseFloodKey(rc.Eval, delta))
		if err != nil {
			return err
		}
		p.FloodMedian = *median
		t.Add(p.Label, PctErr(p.OverheadMean, p.OverheadStd),
			Pct(p.FPRMean), fmt.Sprint(p.Flips),
			fmt.Sprintf("%.0f", p.FloodMedian))
	}
	return t.Render(w)
}

func renderExtensions(w io.Writer, rc *Context) error {
	t := NewTable(
		"Extensions beyond the paper — CAT (adaptive tree, §II), TRR (commodity in-DRAM sampler), QuaPRoMi (quadratic weighting)",
		"technique", "table/bank", "overhead", "FPR", "flips",
		"flood survival", "decoy ratio", "saturation ratio", "vulnerable")
	for _, name := range campaign.ExtTechniques() {
		sum, err := rc.Results.Summary(campaign.ExtSweepKey(name))
		if err != nil {
			return err
		}
		rep, err := value[sim.ExtVulnReport](rc, campaign.ExtVulnKey(rc.Eval, name))
		if err != nil {
			return err
		}
		bytes, err := tableBytesAtPaperScale(name)
		if err != nil {
			return err
		}
		t.Add(name, Bytes(bytes),
			PctErr(sum.Overhead.Mean(), sum.Overhead.StdDev()),
			Pct(sum.FPR.Mean()), fmt.Sprint(sum.TotalFlips),
			fmt.Sprintf("%.2e", rep.FloodSurvival),
			fmt.Sprintf("%.2f", rep.DecoyRatio),
			fmt.Sprintf("%.2f", rep.SaturationRatio),
			YesNo(rep.Vulnerable))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "findings: CAT collapses when the attacker fills the tree before hammering")
	fmt.Fprintln(w, "          (the paper's §II critique, measured); QuaPRoMi's late quadratic ramp")
	fmt.Fprintln(w, "          saves activations but leaves a 61% flood-survival hole — why the")
	fmt.Fprintln(w, "          paper stops at logarithmic/linear; TRR degrades ~2x under hotter")
	fmt.Fprintln(w, "          decoy rows (the TRRespass direction).")
	return nil
}

func renderLatency(w io.Writer, rc *Context) error {
	t := NewTable(
		"Request latency under attack (cycle-accurate FR-FCFS scheduler, one window)",
		"technique", "avg latency (cycles)", "max latency", "row-hit rate", "extra activations")
	for _, name := range campaign.LatencyTechniques() {
		r, err := value[sim.LatencyResult](rc, campaign.LatencyKey(rc.Eval, name))
		if err != nil {
			return err
		}
		t.Add(r.Technique,
			fmt.Sprintf("%.1f", r.AvgLatency),
			fmt.Sprint(r.MaxLatency),
			fmt.Sprintf("%.1f%%", r.RowHitPct),
			fmt.Sprint(r.ExtraActs))
	}
	return t.Render(w)
}

func renderThresholds(w io.Writer, rc *Context) error {
	p := rc.Eval.Probe
	ths := rc.Eval.Thresholds
	pts := sim.ThresholdSweep(p, ths)
	headers := []string{"technique"}
	for i, th := range ths {
		h := fmt.Sprintf("%dK", th/1000)
		if i == 0 {
			h += " (paper)"
		}
		headers = append(headers, h)
	}
	t := NewTable(
		"Flip-threshold sweep — weight-aware flood survival (paper Pbase; counters re-provisioned)",
		headers...)
	bySurv := map[string]map[uint32]sim.ThresholdPoint{}
	for _, pt := range pts {
		if bySurv[pt.Technique] == nil {
			bySurv[pt.Technique] = map[uint32]sim.ThresholdPoint{}
		}
		bySurv[pt.Technique][pt.Threshold] = pt
	}
	cell := func(pt sim.ThresholdPoint) string {
		mark := ""
		if !pt.Safe {
			mark = " (!)"
		}
		return fmt.Sprintf("%.1e%s", pt.Survival, mark)
	}
	for _, name := range sim.TechniqueNames() {
		row := []string{name}
		for _, th := range ths {
			row = append(row, cell(bySurv[name][th]))
		}
		t.Add(row...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "(!) marks survival above the Table III vulnerability limit: with the paper's")
	fmt.Fprintln(w, "    Pbase, every probabilistic technique — including TiVaPRoMi — needs")
	fmt.Fprintln(w, "    re-tuning below ≈70K-flip DRAM, while counter designs only re-provision.")
	return nil
}

func renderFaults(w io.Writer, rc *Context) error {
	sc := campaign.FaultSweepFor(rc.Eval)
	t := NewTable(
		"Graceful degradation — mitigations under injected hardware faults (mean per run)",
		"technique", "fault model", "rate", "flips", "overhead", "FPR",
		"injected", "dropped", "delayed", "errors")
	for _, c := range sc.Cells() {
		sum, errs, err := rc.Results.LossySummary(campaign.FaultKey(sc.Canonical(c)))
		if err != nil {
			return err
		}
		p := sim.FaultPointOf(c.Technique, c.Model, c.Rate, sum, errs)
		rate := fmt.Sprintf("%.0e", p.Rate)
		if p.Model == faults.None {
			rate = "-"
		}
		t.Add(p.Technique, p.Model.String(),
			rate,
			fmt.Sprintf("%.1f", p.Flips),
			fmt.Sprintf("%.3f%%", p.OverheadPct),
			fmt.Sprintf("%.3f%%", p.FPRPct),
			fmt.Sprintf("%.1f", p.Injected),
			fmt.Sprintf("%.1f", p.Dropped),
			fmt.Sprintf("%.1f", p.Delayed),
			fmt.Sprint(p.Errors))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "reading: stuck-rng is the Loaded Dice non-selection case (probabilistic")
	fmt.Fprintln(w, "         protection silently stops; counters are immune); drop/delay-actn is")
	fmt.Fprintln(w, "         the QPRAC imperfect-service case; state-seu models SRAM upsets in")
	fmt.Fprintln(w, "         the mitigation tables; weak-cells lowers the effective threshold")
	fmt.Fprintln(w, "         under every technique equally.")
	return nil
}
