package main

// metric describes one reported number. bench/README.md maps each
// per-layer metric to the module whose public functions it times and to
// the end-to-end metric and workload a change there should move.
type metric struct {
	name, unit, better string
}

// endToEnd are the numbers a user of the system sees, reported by every
// workload from its untraced pass. Apart from set-up, the timings are
// process CPU time: on a shared host the hypervisor steals a varying share
// of wall-clock time, and wall-clock figures come from the traced pass
// (the wall.* per-layer metrics) instead. Their regression bounds live in
// BENCHMARK.json; TestCatalogueMatchesBenchmarkJSON keeps the two in step.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"op_cpu_ms", "ms", "lower"},
	{"sim_maccess_per_cpu_s", "M/cpu-s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced pass's numbers. Every workload emits every
// one; a layer a workload does not exercise reads 0 there.
var perLayer = func() []metric {
	m := []metric{
		{"workload.gen_ns_per_access.scaled", "ns", "lower"},
		{"workload.gen_ns_per_access.fulldimm", "ns", "lower"},
		{"dram.ns_per_act.scaled", "ns", "lower"},
		{"dram.ns_per_act.fulldimm", "ns", "lower"},
	}
	for _, t := range techniques {
		m = append(m, metric{"mitigation.ns_per_act." + t, "ns", "lower"})
	}
	m = append(m,
		metric{"memctrl.controller_ns_per_access", "ns", "lower"},
		metric{"memctrl.sched_s", "s", "lower"},
		metric{"sim.ns_per_access.none", "ns", "lower"},
	)
	for _, t := range techniques {
		m = append(m, metric{"sim.ns_per_access." + t, "ns", "lower"})
	}
	m = append(m,
		metric{"sim.ns_per_access.fulldimm", "ns", "lower"},
		metric{"sim.dispatch_frac", "ratio", "lower"},
		metric{"sim.accesses", "count", "higher"},
		metric{"sim.acts", "count", "higher"},
		metric{"sim.extra_acts", "count", "lower"},
		metric{"sim.flips", "count", "lower"},
		metric{"sim.runs", "count", "lower"},
		metric{"sim.dup_runs", "count", "lower"},
		metric{"sim.run_s", "s", "lower"},
	)
	for _, c := range runClasses {
		m = append(m, metric{"sim.run_s." + c, "s", "lower"})
	}
	return append(m,
		metric{"sim.vuln_s", "s", "lower"},
		metric{"sim.flood_s", "s", "lower"},
		metric{"sim.probe_other_s", "s", "lower"},
		metric{"sim.checkpoint.write_s", "s", "lower"},
		metric{"sim.checkpoint.write_bytes", "bytes", "lower"},
		metric{"sim.checkpoint.fsyncs", "count", "lower"},
		metric{"sim.checkpoint.renames", "count", "lower"},
		metric{"sim.checkpoint.load_ms.p50", "ms", "lower"},
		metric{"sim.checkpoint.read_bytes", "bytes", "lower"},
		metric{"sim.checkpoint.hit_frac", "ratio", "higher"},
		metric{"campaign.cells", "count", "lower"},
		metric{"campaign.run_s", "s", "lower"},
		metric{"campaign.busy_frac", "ratio", "higher"},
		metric{"campaign.tail_s", "s", "lower"},
		metric{"campaign.unattributed_frac", "ratio", "lower"},
		metric{"campaign.run_ms.p50", "ms", "lower"},
		metric{"report.render_s", "s", "lower"},
		metric{"report.render_ms.p50", "ms", "lower"},
		metric{"serve.submit_ms.p50", "ms", "lower"},
		metric{"serve.submit_ms.p95", "ms", "lower"},
		metric{"serve.first_event_ms.p50", "ms", "lower"},
		metric{"serve.job_ms.p50", "ms", "lower"},
		metric{"serve.cached_job_ms.p50", "ms", "lower"},
		metric{"serve.journal.fsyncs", "count", "lower"},
		metric{"serve.journal.write_s", "s", "lower"},
		metric{"serve.campaign_s", "s", "lower"},
		metric{"serve.dedup_hits", "count", "higher"},
		metric{"serve.jobs.fresh", "count", "higher"},
		metric{"serve.jobs.dedup", "count", "higher"},
		metric{"serve.jobs.replayed", "count", "higher"},
		metric{"serve.rejected", "count", "lower"},
		metric{"wall.round_s", "s", "lower"},
		metric{"wall.op_ms.p50", "ms", "lower"},
		metric{"wall.op_ms.tail", "ms", "lower"},
		metric{"obs.traced_op_cpu_ms", "ms", "lower"},
	)
}()

// runClasses split simulation time by the kind of run: unprotected,
// PARA, the TiVaPRoMi family (its ablation variants included), every
// other technique, and runs with an injected fault plan.
var runClasses = []string{"none", "para", "promi", "other", "faulted"}
