package sim

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"tivapromi/internal/iofault"
	"tivapromi/internal/obs"
	"tivapromi/internal/recordlog"
)

// The checkpoint is a record schema on internal/recordlog: a header
// naming the format and version, then one checksummed record per
// completed sweep seed or probe cell. Version 3 is the append-only log;
// files of earlier versions are quarantined and their runs re-simulated
// (there is no migration).
const (
	checkpointFormat  = "tivapromi-checkpoint"
	checkpointVersion = 3

	kindSweep = "sweep" // ID = run fingerprint, Sub = seed key
	kindProbe = "probe" // ID = probe fingerprint
	// kindOutput records held a rendered section, which earlier releases
	// replayed instead of rendering. The loader drops them: they are
	// neither held nor damage.
	kindOutput = "output"
)

// Typed load failures. LoadCheckpoint never fails the experiment for
// either of them — salvage and quarantine handle the damage — but it
// reports them through LoadReport.Err so callers (the campaign progress
// stream, the torture harness) can tell the two apart and log the
// quarantine path.
var (
	// ErrCheckpointCorrupt marks a checkpoint file that was torn,
	// truncated, bit-flipped, or otherwise damaged. Entries whose
	// checksums verified were salvaged; the original file is quarantined.
	ErrCheckpointCorrupt = recordlog.ErrCorrupt
	// ErrCheckpointVersion marks a checkpoint written by another format
	// version. Nothing is salvaged — guessing at another format is worse
	// than re-running — and the file is quarantined.
	ErrCheckpointVersion = recordlog.ErrVersion
)

// LoadReport describes what LoadCheckpoint found on disk. A clean load
// reports Entries with everything else zero.
type LoadReport struct {
	// Entries is the number of entries loaded (salvaged entries
	// included).
	Entries int
	// Dropped is the number of entries discarded because their checksum
	// did not verify (they will simply re-run).
	Dropped int
	// Quarantined is the path the damaged original was renamed to
	// ("" when no quarantine happened).
	Quarantined string
	// Err classifies the damage (ErrCheckpointCorrupt or
	// ErrCheckpointVersion); nil for a clean load.
	Err error
}

// Note renders the report as a one-line human-readable notice, or ""
// for a clean load.
func (r LoadReport) Note() string {
	switch {
	case r.Err != nil && r.Quarantined != "":
		return fmt.Sprintf("checkpoint: %v — salvaged %d entries, dropped %d, original quarantined at %s",
			r.Err, r.Entries, r.Dropped, r.Quarantined)
	case r.Err != nil:
		return fmt.Sprintf("checkpoint: %v — salvaged %d entries, dropped %d", r.Err, r.Entries, r.Dropped)
	default:
		return ""
	}
}

// Checkpoint is a durable store of completed per-seed results and probe
// results, keyed by fingerprints. A hardened
// sweep writes each seed's result through the checkpoint as it
// completes; a re-run of the same sweep skips the seeds already on
// disk. A nil *Checkpoint is a no-op store, so callers can thread one
// pointer unconditionally.
//
// The store is a recordlog.Log, so durability is defended in depth:
//
//   - each new entry is appended and fsynced before record or PutProbe
//     returns, and an entry already held is never appended
//     again (results are deterministic), so the bytes written grow with
//     the entries held;
//   - every entry carries a SHA-256 checksum binding identity to
//     payload, so damage — torn writes, lost fsyncs, media bit flips —
//     is detected on load;
//   - a damaged file is salvaged entry by entry (everything whose
//     checksum verifies is kept; only the damaged entries re-run), the
//     original is quarantined to <path>.corrupt-<timestamp> for
//     forensics, and a failed append heals by rewriting the whole log
//     atomically before the next one.
//
// All file I/O goes through an iofault.FS seam, so the chaos torture
// harness (internal/chaostest) can attack exactly this machinery.
// A Checkpoint is safe for concurrent use by the worker pool.
type Checkpoint struct {
	mu     sync.Mutex
	path   string
	log    *recordlog.Log
	sweeps map[sweepKey]Result
	probes map[string]json.RawMessage
	// report is what LoadCheckpoint found on disk.
	report LoadReport
	// stats counts cache traffic (see CacheStats).
	stats CacheStats
}

// CacheStats counts a checkpoint's cache traffic. When several campaigns
// share one checkpoint — the serving layer's content-addressed result
// cache — the hit counters are the cross-tenant dedup census: every hit
// is a simulation some earlier submission already paid for.
type CacheStats struct {
	// SweepHits / SweepMisses count per-seed sweep lookups.
	SweepHits   int64 `json:"sweep_hits"`
	SweepMisses int64 `json:"sweep_misses"`
	// ProbeHits / ProbeMisses count probe-cell lookups.
	ProbeHits   int64 `json:"probe_hits"`
	ProbeMisses int64 `json:"probe_misses"`
	// Entries is the number of entries currently held (seeds + probes).
	Entries int `json:"entries"`
}

// Hits returns the total cache hits across entry kinds.
func (s CacheStats) Hits() int64 { return s.SweepHits + s.ProbeHits }

// CacheStats returns a snapshot of the checkpoint's cache counters (the
// zero value for a nil checkpoint).
func (c *Checkpoint) CacheStats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.entries()
	return st
}

// sweepKey files one seed's result: the run fingerprint and the seed
// key.
type sweepKey struct{ fp, seed string }

// entries counts every entry held. Requires c.mu held (or exclusive
// access during load).
func (c *Checkpoint) entries() int {
	return len(c.sweeps) + len(c.probes)
}

// LoadCheckpoint opens or creates a checkpoint at path through the real
// filesystem. A missing file is an empty checkpoint, and nothing is
// created until the first entry is recorded. A corrupt file is
// salvaged: every entry whose checksum verifies is kept, the damaged
// original is quarantined, and the load still succeeds — re-running the
// dropped entries is always safe, losing the intact ones never is. Use
// LoadReport (or LoadCheckpointFS) to observe what happened.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return LoadCheckpointFS(path, nil)
}

// LoadCheckpointFS is LoadCheckpoint with an explicit filesystem seam
// (nil means the passthrough iofault.OS). The torture harness threads a
// fault-injecting FS through here.
func LoadCheckpointFS(path string, fs iofault.FS) (*Checkpoint, error) {
	if path == "" {
		return nil, fmt.Errorf("sim: empty checkpoint path")
	}
	c := &Checkpoint{
		path:   path,
		sweeps: make(map[sweepKey]Result),
		probes: make(map[string]json.RawMessage),
	}
	names := make(nameTab)
	log, rep, err := recordlog.Open(path, fs, checkpointFormat, checkpointVersion,
		func(r recordlog.Record) error { return c.apply(r, names) })
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	c.log = log
	c.report = LoadReport{Entries: c.entries(), Dropped: rep.Dropped, Quarantined: rep.Quarantined, Err: rep.Err}
	if rep.Err != nil {
		if rep.Quarantined != "" {
			obs.CheckpointQuarantines.Inc()
		}
		if rep.Records > 0 {
			obs.CheckpointSalvages.Inc()
		}
		obs.Emit("checkpoint-quarantine",
			"path", path,
			"quarantined", rep.Quarantined,
			"salvaged", strconv.Itoa(rep.Records),
			"dropped", strconv.Itoa(rep.Dropped),
			"err", rep.Err.Error())
		obs.Instant("checkpoint-quarantine", "checkpoint",
			"path", path, "salvaged", strconv.Itoa(rep.Records))
	}
	return c, nil
}

// apply folds one verified record into the in-memory store; an error
// refuses the record as damage. Sweep payloads, nearly every record,
// go through decodeResult; names interns their technique and policy
// names across the load.
func (c *Checkpoint) apply(r recordlog.Record, names nameTab) error {
	switch r.Kind {
	case kindSweep:
		res, ok := decodeResult(r.Data, names)
		if !ok {
			return fmt.Errorf("sweep payload is not an encoded Result")
		}
		c.sweeps[sweepKey{r.ID, r.Sub}] = res
	case kindProbe:
		c.probes[r.ID] = r.Data
	case kindOutput: // written by earlier releases; dropped
	default:
		return fmt.Errorf("unknown record kind %q", r.Kind)
	}
	return nil
}

// appendLocked commits one new entry to the log; the caller stores it
// in memory only on success. Requires c.mu held.
func (c *Checkpoint) appendLocked(kind, id, sub string, data []byte) error {
	span := obs.StartSpan("checkpoint-flush", "checkpoint", "path", c.path)
	if err := c.log.Append(recordlog.Record{Kind: kind, ID: id, Sub: sub, Data: data}); err != nil {
		span.End("outcome", "err")
		return fmt.Errorf("sim: checkpoint: %w", err)
	}
	span.End("outcome", "ok")
	obs.CheckpointFlushes.Inc()
	return nil
}

// Path returns the checkpoint's file path ("" for a nil checkpoint).
func (c *Checkpoint) Path() string {
	if c == nil {
		return ""
	}
	return c.path
}

// LoadReport returns what LoadCheckpoint found on disk (the zero report
// for a nil checkpoint or a fresh file).
func (c *Checkpoint) LoadReport() LoadReport {
	if c == nil {
		return LoadReport{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.report
}

// lookup returns the cached result for one seed of a fingerprinted sweep.
func (c *Checkpoint) lookup(fp string, seed uint64) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.sweeps[sweepKey{fp, seedKey(seed)}]
	if ok {
		c.stats.SweepHits++
		obs.DedupHits.Inc()
	} else {
		c.stats.SweepMisses++
	}
	return r, ok
}

// record stores one completed seed result, appending it to the log
// unless the seed is already held. Errors are returned so the runner
// can surface a read-only checkpoint directory instead of silently
// losing progress; a result whose append failed is not held, so a
// retry re-runs it.
func (c *Checkpoint) record(fp string, seed uint64, res Result) error {
	if c == nil {
		return nil
	}
	key := sweepKey{fp, seedKey(seed)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sweeps[key]; ok {
		return nil
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("sim: marshal result: %w", err)
	}
	if err := c.appendLocked(kindSweep, fp, key.seed, data); err != nil {
		return err
	}
	c.sweeps[key] = res
	return nil
}

// Probe returns the cached JSON encoding of a probe cell's result, keyed
// by the cell fingerprint.
func (c *Checkpoint) Probe(fp string) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.probes[fp]
	if ok {
		c.stats.ProbeHits++
		obs.DedupHits.Inc()
	} else {
		c.stats.ProbeMisses++
	}
	return raw, ok
}

// PutProbe caches a probe cell's result (any JSON-encodable value) under
// the cell fingerprint, so a killed campaign resumes past every
// deterministic probe that completed.
func (c *Checkpoint) PutProbe(fp string, v any) error {
	if c == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sim: marshal probe result: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.probes[fp]; ok {
		return nil
	}
	if err := c.appendLocked(kindProbe, fp, "", raw); err != nil {
		return err
	}
	c.probes[fp] = raw
	return nil
}

// Close releases the checkpoint's append handle; later writes fail.
// Lookups keep answering from memory.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.Close()
}

// seedKey renders a seed as a stable JSON map key.
func seedKey(seed uint64) string { return "0x" + strconv.FormatUint(seed, 16) }

// Runner bundles the hardened pool configuration with an optional
// checkpoint. It is the front door for experiment drivers: construct one
// Runner per process, call RunSeeds (or RunGroupSeeds, for sweeps that
// share an access stream) for every sweep, and killed processes resume
// from whatever the checkpoint captured.
type Runner struct {
	Config     RunnerConfig
	Checkpoint *Checkpoint // nil disables persistence
}

// NewRunner returns a Runner with DefaultRunnerConfig and no checkpoint.
func NewRunner() *Runner { return &Runner{Config: DefaultRunnerConfig()} }
