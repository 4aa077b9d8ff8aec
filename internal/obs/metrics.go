package obs

// The process-wide metric catalog. Every subsystem increments these
// package-level vars directly; all register against Default so a
// single WritePrometheus call (GET /metrics, -metrics-out) renders
// the whole flight deck. Names follow Prometheus conventions:
// tivapromi_<noun>_total for counters, plain nouns for gauges.

// Serve layer: job lifecycle, admission control, fan-out health.
var (
	JobsAdmitted = Default.Counter("tivapromi_jobs_admitted_total",
		"Campaign jobs accepted past admission control.")
	JobsRejected = Default.Counter("tivapromi_jobs_rejected_total",
		"Campaign submissions shed at admission (429/503).")
	JobsCompleted = Default.Counter("tivapromi_jobs_completed_total",
		"Campaign jobs finished successfully.")
	JobsFailed = Default.Counter("tivapromi_jobs_failed_total",
		"Campaign jobs finished with an error.")
	JobsCanceled = Default.Counter("tivapromi_jobs_canceled_total",
		"Campaign jobs canceled (drain force-cancel included).")
	HandlerPanics = Default.Counter("tivapromi_handler_panics_total",
		"Panics recovered by the serve layer (handlers and job goroutines).")
	TenantBreakerTrips = Default.Counter("tivapromi_tenant_breaker_trips_total",
		"Tenant circuit-breaker openings after consecutive failures.")
	SSEEventsDropped = Default.Counter("tivapromi_sse_events_dropped_total",
		"Progress events dropped because a subscriber buffer was full.")
	QueueDepth = Default.Gauge("tivapromi_queue_depth",
		"Queued campaign jobs across all tenants (admitted, not yet running).")
	ActiveJobs = Default.Gauge("tivapromi_active_jobs",
		"Campaign jobs currently executing.")
	JobSeconds = Default.Histogram("tivapromi_job_seconds",
		"Wall-clock seconds per campaign job, admission to settle.",
		[]float64{0.01, 0.05, 0.25, 1, 5, 15, 60, 300})
)

// Serving durability: write-ahead job journal and crash recovery.
var (
	JobsRecovered = Default.Counter("tivapromi_jobs_recovered_total",
		"Jobs re-admitted from the write-ahead journal after a restart.")
	IdempotentHits = Default.Counter("tivapromi_idempotent_hits_total",
		"Duplicate Idempotency-Key submissions answered with the original job.")
	JournalAppends = Default.Counter("tivapromi_journal_appends_total",
		"Records appended and fsynced to the write-ahead job journal.")
	JournalAppendErrs = Default.Counter("tivapromi_journal_append_errors_total",
		"Journal append attempts that failed (submission rejected or state record lost).")
	JournalSalvages = Default.Counter("tivapromi_journal_salvages_total",
		"Journal loads that salvaged verifiable records from a damaged log.")
	JournalQuarantines = Default.Counter("tivapromi_journal_quarantines_total",
		"Damaged journal files moved aside to *.corrupt-* for forensics.")
)

// Campaign engine: per-cell outcomes and retry machinery.
var (
	CellsCompleted = Default.Counter("tivapromi_cells_completed_total",
		"Campaign cells that produced a result (fresh or cached).")
	CellsCached = Default.Counter("tivapromi_cells_cached_total",
		"Campaign cells satisfied from the checkpoint cache without simulating.")
	CellsSkipped = Default.Counter("tivapromi_cells_skipped_total",
		"Campaign cells skipped after the retry budget or breaker gave up.")
	CellRetries = Default.Counter("tivapromi_cell_retries_total",
		"Cell-level retry attempts after a transient failure.")
	BreakerTrips = Default.Counter("tivapromi_breaker_trips_total",
		"Per-cell circuit-breaker trips (attempt cap reached).")
	DedupHits = Default.Counter("tivapromi_dedup_hits_total",
		"Checkpoint cache hits (sweep and probe), i.e. work deduplicated across runs and tenants.")
	CellSeconds = Default.Histogram("tivapromi_cell_seconds",
		"Wall-clock seconds per campaign cell: an equal share of its admission unit's time.",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60})
)

// Sim runner: attempt-level retry/stall/panic accounting.
var (
	RunAttempts = Default.Counter("tivapromi_run_attempts_total",
		"Individual simulation run attempts (including retries).")
	RunRetries = Default.Counter("tivapromi_run_retries_total",
		"Simulation run attempts retried after a transient error.")
	RunStalls = Default.Counter("tivapromi_run_stalls_total",
		"Simulation runs canceled by the stall watchdog.")
	RunPanics = Default.Counter("tivapromi_run_panics_total",
		"Simulation runs that panicked and were converted to errors.")
)

// Checkpoint store: durability and salvage.
var (
	CheckpointFlushes = Default.Counter("tivapromi_checkpoint_flushes_total",
		"Checkpoint shard flushes committed to disk.")
	CheckpointSalvages = Default.Counter("tivapromi_checkpoint_salvages_total",
		"Checkpoint loads that salvaged a prefix of a damaged file.")
	CheckpointQuarantines = Default.Counter("tivapromi_checkpoint_quarantines_total",
		"Damaged checkpoint files moved aside to *.corrupt-* for forensics.")
)

// Chaos FS: fault injections by kind.
var chaosInjections = map[string]*Counter{}

func init() {
	for _, kind := range []string{
		"torn_write", "short_write", "write_err", "no_space",
		"rename_fail", "fsync_loss", "bit_flip",
	} {
		chaosInjections[kind] = Default.Counter("tivapromi_chaos_injections_total",
			"I/O faults injected by the chaos filesystem, by kind.",
			"kind", kind)
	}
}

// ChaosInjection increments the injection counter for kind. The map
// is fully populated at init and never written afterwards, so lookups
// are race-free; an unknown kind falls through to the mutex-guarded
// registry, which is fine for a fault-injection path.
func ChaosInjection(kind string) {
	c := chaosInjections[kind]
	if c == nil {
		c = Default.Counter("tivapromi_chaos_injections_total",
			"I/O faults injected by the chaos filesystem, by kind.",
			"kind", kind)
	}
	c.Inc()
}

// Device/controller scale: sampled from lane refresh-interval
// boundaries and per-run collection — never from the act fast path.
var (
	Accesses = Default.Counter("tivapromi_accesses_total",
		"Memory accesses driven through lane controllers (sampled at refresh-interval boundaries).")
	Acts = Default.Counter("tivapromi_acts_total",
		"Row activations issued, mitigation extras included (sampled per run).")
	SparseStateBytes = Default.Gauge("tivapromi_sparse_state_bytes",
		"High-water estimate of sparse DRAM state bytes in a single simulated device.")
	TouchedRows = Default.Gauge("tivapromi_touched_rows",
		"High-water count of distinct rows touched in a single simulated device.")
)
