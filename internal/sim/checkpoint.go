package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"tivapromi/internal/iofault"
	"tivapromi/internal/obs"
)

// checkpointVersion guards the on-disk format. Version 2 is the
// crash-consistent line-oriented format: a header line, one
// self-checksummed entry per line, and a whole-file digest trailer.
// Version 1 (a single indented JSON document with no checksums) is
// migrated on load.
const checkpointVersion = 2

// checkpointFormat is the magic the v2 header line carries.
const checkpointFormat = "tivapromi-checkpoint"

// Typed load failures. LoadCheckpoint never fails the experiment for
// either of them — salvage and quarantine handle the damage — but it
// reports them through LoadReport.Err so callers (the campaign progress
// stream, the torture harness) can tell the two apart and log the
// quarantine path.
var (
	// ErrCheckpointCorrupt marks a checkpoint file that was torn,
	// truncated, bit-flipped, or otherwise damaged. Entries whose
	// checksums verified were salvaged; the original file is quarantined.
	ErrCheckpointCorrupt = errors.New("sim: checkpoint corrupt")
	// ErrCheckpointVersion marks a checkpoint written by an unknown
	// (newer) format version. Nothing is salvaged — guessing at a future
	// format is worse than re-running — and the file is quarantined.
	ErrCheckpointVersion = errors.New("sim: checkpoint version mismatch")
)

// LoadReport describes what LoadCheckpoint found on disk. A clean load
// of a v2 file reports Entries with everything else zero.
type LoadReport struct {
	// Entries is the number of entries loaded (salvaged entries
	// included).
	Entries int
	// Dropped is the number of entries discarded because their checksum
	// did not verify (they will simply re-run).
	Dropped int
	// Migrated reports a v1 file was upgraded to v2 in place.
	Migrated bool
	// Quarantined is the path the damaged original was renamed to
	// ("" when no quarantine happened).
	Quarantined string
	// Err classifies the damage (ErrCheckpointCorrupt or
	// ErrCheckpointVersion); nil for a clean load.
	Err error
}

// Note renders the report as a one-line human-readable notice, or ""
// when there is nothing noteworthy (clean load, no migration).
func (r LoadReport) Note() string {
	switch {
	case r.Err != nil && r.Quarantined != "":
		return fmt.Sprintf("checkpoint: %v — salvaged %d entries, dropped %d, original quarantined at %s",
			r.Err, r.Entries, r.Dropped, r.Quarantined)
	case r.Err != nil:
		return fmt.Sprintf("checkpoint: %v — salvaged %d entries, dropped %d", r.Err, r.Entries, r.Dropped)
	case r.Migrated:
		return fmt.Sprintf("checkpoint: migrated v1 file to v2 (%d entries)", r.Entries)
	default:
		return ""
	}
}

// checkpointV1File is the legacy version-1 document, kept only so old
// files can be migrated on load.
type checkpointV1File struct {
	Version int                         `json:"version"`
	Sweeps  map[string]*checkpointSweep `json:"sweeps"`
	Outputs map[string]checkpointOutput `json:"outputs,omitempty"`
	Probes  map[string]json.RawMessage  `json:"probes,omitempty"`
}

// checkpointSweep holds the completed seeds of one fingerprinted sweep.
type checkpointSweep struct {
	// Done maps seed → completed result. Seeds absent from the map were
	// not finished when the checkpoint was written and will be re-run.
	Done map[string]Result `json:"done"`
}

// checkpointOutput caches one fully rendered experiment section (used by
// cmd/experiments to resume `all` at section granularity).
type checkpointOutput struct {
	Text string `json:"text"`
}

// checkpointState is the in-memory store behind a checkpoint, the same
// shape v1 used; only the serialization changed in v2.
type checkpointState struct {
	Sweeps  map[string]*checkpointSweep
	Outputs map[string]checkpointOutput
	Probes  map[string]json.RawMessage
}

func newCheckpointState() checkpointState {
	return checkpointState{
		Sweeps:  make(map[string]*checkpointSweep),
		Outputs: make(map[string]checkpointOutput),
		Probes:  make(map[string]json.RawMessage),
	}
}

// entries counts every entry in the state.
func (s *checkpointState) entries() int {
	n := len(s.Outputs) + len(s.Probes)
	for _, sw := range s.Sweeps {
		n += len(sw.Done)
	}
	return n
}

// Line kinds of the v2 format.
const (
	lineSweep  = "sweep"
	lineProbe  = "probe"
	lineOutput = "output"
	lineDigest = "digest"
)

// ckptLine is one line of a v2 checkpoint file: the header (Format +
// Version set), an entry (K + identity + Sum + Data), or the digest
// trailer (K = "digest", Sum over every preceding byte of the file).
type ckptLine struct {
	Format  string          `json:"format,omitempty"`
	Version int             `json:"version,omitempty"`
	Shard   int             `json:"shard,omitempty"`  // sharded header: shard index
	Shards  int             `json:"shards,omitempty"` // sharded header: directory shard count
	K       string          `json:"k,omitempty"`
	FP      string          `json:"fp,omitempty"`   // sweep, probe
	Seed    string          `json:"seed,omitempty"` // sweep
	Name    string          `json:"name,omitempty"` // output
	Sum     string          `json:"sum,omitempty"`
	Data    json.RawMessage `json:"data,omitempty"`
}

// entrySum computes the per-entry checksum. It binds the entry's kind
// and full identity to its payload bytes, so a bit flip anywhere in the
// line — key, seed, or data — fails verification; a corrupted entry can
// never be resurrected under the wrong key.
func entrySum(kind, id1, id2 string, data []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(id1))
	h.Write([]byte{0})
	h.Write([]byte(id2))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// Checkpoint is a durable store of completed per-seed results, rendered
// section outputs and probe results, keyed by fingerprints. A hardened
// sweep writes each seed's result through the checkpoint as it
// completes; a re-run of the same sweep skips the seeds already on
// disk. The zero value (or a nil *Checkpoint) is a no-op store, so
// callers can thread one pointer unconditionally.
//
// Durability is defended in depth:
//
//   - writes are atomic (temp file + fsync + rename in the checkpoint's
//     directory), so a process killed mid-write leaves the previous
//     consistent snapshot behind;
//   - every entry carries a SHA-256 checksum binding identity to
//     payload, and the file ends in a whole-file digest, so damage the
//     rename could not prevent — torn writes that did reach the disk,
//     lost fsyncs, media bit flips — is detected on load;
//   - a damaged file is salvaged entry by entry (everything whose
//     checksum verifies is kept; only the damaged entries re-run) and
//     the original is quarantined to <path>.corrupt-<timestamp> for
//     forensics.
//
// All file I/O goes through an iofault.FS seam, so the chaos torture
// harness (internal/chaostest) can attack exactly this machinery.
// A Checkpoint is safe for concurrent use by the worker pool.
type Checkpoint struct {
	mu   sync.Mutex
	path string
	fs   iofault.FS
	data checkpointState
	// report is what LoadCheckpoint found on disk.
	report LoadReport
	// dirty counts results accepted since the last flush.
	dirty int
	// shardN > 0 selects the sharded directory layout (see
	// checkpoint_shard.go); dirtyShards flags the shards a flush must
	// rewrite.
	shardN      int
	dirtyShards []bool
	// stats counts cache traffic (see CacheStats).
	stats CacheStats
	// FlushEvery bounds how many new results accumulate in memory before
	// an automatic flush (default 1: write through on every result, the
	// safest setting for multi-hour sweeps).
	FlushEvery int
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
	// Entries is the number of entries currently held (seeds + probes +
	// outputs).
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
	st.Entries = c.data.entries()
	return st
}

// LoadCheckpoint opens or creates a checkpoint at path through the real
// filesystem. A missing file is an empty checkpoint. A corrupt file is
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
	if fs == nil {
		fs = iofault.OS{}
	}
	c := &Checkpoint{path: path, fs: fs, FlushEvery: 1, data: newCheckpointState()}
	raw, err := fs.ReadFile(path)
	if err != nil {
		if isNotExist(err) {
			return c, nil
		}
		return nil, fmt.Errorf("sim: read checkpoint: %w", err)
	}
	rep := c.load(raw)
	rep.Entries = c.data.entries()
	if rep.Err != nil {
		// Quarantine the damaged original before the next flush would
		// overwrite it; the salvaged entries live on in memory (and are
		// flushed back immediately below when there are any).
		q := fmt.Sprintf("%s.corrupt-%d", path, time.Now().UnixNano())
		if renameErr := fs.Rename(path, q); renameErr == nil {
			rep.Quarantined = q
			obs.CheckpointQuarantines.Inc()
			// Best-effort: bound the forensic corpses this path accumulates.
			PruneQuarantine(fs, path, QuarantineKeep)
		}
		if rep.Entries > 0 {
			obs.CheckpointSalvages.Inc()
		}
		obs.Emit("checkpoint-quarantine",
			"path", path,
			"quarantined", rep.Quarantined,
			"salvaged", strconv.Itoa(rep.Entries),
			"dropped", strconv.Itoa(rep.Dropped),
			"err", rep.Err.Error())
		obs.Instant("checkpoint-quarantine", "checkpoint",
			"path", path, "salvaged", strconv.Itoa(rep.Entries))
	}
	c.report = rep
	if (rep.Err != nil && rep.Entries > 0) || rep.Migrated {
		// Persist the salvaged/migrated state in v2 form right away, so
		// a crash before the next organic flush cannot lose it again.
		c.mu.Lock()
		err := c.flushLocked()
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// isNotExist matches the not-exist condition through whatever error
// chain the FS seam produced.
func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}

// load parses raw into c.data, handling v2, v1-migration and damage.
// It returns the report describing what happened (Entries is filled in
// by the caller).
func (c *Checkpoint) load(raw []byte) LoadReport {
	var rep LoadReport
	// A v2 file starts with a parseable header line carrying the magic.
	if hdr, rest, ok := splitLine(raw); ok {
		var h ckptLine
		if json.Unmarshal(hdr, &h) == nil && h.Format == checkpointFormat {
			if h.Version != checkpointVersion {
				rep.Err = fmt.Errorf("%w: file version %d, want %d",
					ErrCheckpointVersion, h.Version, checkpointVersion)
				return rep
			}
			return c.loadV2(raw, len(raw)-len(rest))
		}
	}
	// Not v2: try the legacy v1 document.
	var v1 checkpointV1File
	if err := json.Unmarshal(raw, &v1); err == nil {
		if v1.Version != 1 {
			rep.Err = fmt.Errorf("%w: file version %d, want %d",
				ErrCheckpointVersion, v1.Version, checkpointVersion)
			return rep
		}
		if v1.Sweeps != nil {
			c.data.Sweeps = v1.Sweeps
		}
		if v1.Outputs != nil {
			c.data.Outputs = v1.Outputs
		}
		if v1.Probes != nil {
			c.data.Probes = v1.Probes
		}
		rep.Migrated = true
		return rep
	}
	rep.Err = fmt.Errorf("%w: unparseable file", ErrCheckpointCorrupt)
	return rep
}

// loadV2 walks the entry lines of a v2 file, salvaging every entry whose
// checksum verifies. bodyOff is the offset of the first byte after the
// header line.
func (c *Checkpoint) loadV2(raw []byte, bodyOff int) LoadReport {
	var rep LoadReport
	corrupt := func(format string, args ...any) {
		if rep.Err == nil {
			rep.Err = fmt.Errorf("%w: %s", ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
		}
	}
	rest := raw[bodyOff:]
	off := bodyOff
	digestSeen := false
	for len(rest) > 0 {
		line, next, ok := splitLine(rest)
		if !ok {
			// No trailing newline: a torn final line.
			corrupt("truncated final line at offset %d", off)
			break
		}
		lineStart := off
		off += len(rest) - len(next)
		rest = next
		if digestSeen {
			corrupt("data after digest at offset %d", lineStart)
			break
		}
		var l ckptLine
		if err := json.Unmarshal(line, &l); err != nil {
			corrupt("unparseable line at offset %d", lineStart)
			continue
		}
		switch l.K {
		case lineDigest:
			digestSeen = true
			h := sha256.Sum256(raw[:lineStart])
			if l.Sum != hex.EncodeToString(h[:]) {
				corrupt("whole-file digest mismatch")
			}
		case lineSweep:
			if entrySum(lineSweep, l.FP, l.Seed, l.Data) != l.Sum {
				rep.Dropped++
				corrupt("sweep entry checksum mismatch at offset %d", lineStart)
				continue
			}
			var res Result
			if err := json.Unmarshal(l.Data, &res); err != nil {
				rep.Dropped++
				corrupt("sweep entry payload at offset %d", lineStart)
				continue
			}
			sw := c.data.Sweeps[l.FP]
			if sw == nil {
				sw = &checkpointSweep{Done: make(map[string]Result)}
				c.data.Sweeps[l.FP] = sw
			}
			sw.Done[l.Seed] = res
		case lineProbe:
			if entrySum(lineProbe, l.FP, "", l.Data) != l.Sum {
				rep.Dropped++
				corrupt("probe entry checksum mismatch at offset %d", lineStart)
				continue
			}
			c.data.Probes[l.FP] = append(json.RawMessage(nil), l.Data...)
		case lineOutput:
			if entrySum(lineOutput, l.Name, "", l.Data) != l.Sum {
				rep.Dropped++
				corrupt("output entry checksum mismatch at offset %d", lineStart)
				continue
			}
			var text string
			if err := json.Unmarshal(l.Data, &text); err != nil {
				rep.Dropped++
				corrupt("output entry payload at offset %d", lineStart)
				continue
			}
			c.data.Outputs[l.Name] = checkpointOutput{Text: text}
		default:
			corrupt("unknown line kind %q at offset %d", l.K, lineStart)
		}
	}
	if !digestSeen {
		corrupt("missing whole-file digest (torn file)")
	}
	return rep
}

// splitLine returns the first line of b (without the newline), the
// remainder after it, and whether a newline terminated the line.
func splitLine(b []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(b, '\n')
	if i < 0 {
		return b, nil, false
	}
	return b[:i], b[i+1:], true
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
	sw := c.data.Sweeps[fp]
	if sw == nil {
		c.stats.SweepMisses++
		return Result{}, false
	}
	r, ok := sw.Done[seedKey(seed)]
	if ok {
		c.stats.SweepHits++
		obs.DedupHits.Inc()
	} else {
		c.stats.SweepMisses++
	}
	return r, ok
}

// record stores one completed seed result and flushes according to
// FlushEvery. Errors are returned so the runner can surface a read-only
// checkpoint directory instead of silently losing progress.
func (c *Checkpoint) record(fp string, seed uint64, res Result) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sw := c.data.Sweeps[fp]
	if sw == nil {
		sw = &checkpointSweep{Done: make(map[string]Result)}
		c.data.Sweeps[fp] = sw
	}
	sw.Done[seedKey(seed)] = res
	c.markDirty(fp)
	c.dirty++
	every := c.FlushEvery
	if every <= 0 {
		every = 1
	}
	if c.dirty >= every {
		return c.flushLocked()
	}
	return nil
}

// Output returns the cached rendered text for a named experiment section.
func (c *Checkpoint) Output(name string) (string, bool) {
	if c == nil {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.data.Outputs[name]
	return out.Text, ok
}

// PutOutput caches the rendered text of a named experiment section and
// flushes immediately, so a killed `experiments all` resumes past every
// section that finished rendering.
func (c *Checkpoint) PutOutput(name, text string) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data.Outputs[name] = checkpointOutput{Text: text}
	c.markDirty(name)
	return c.flushLocked()
}

// Probe returns the cached JSON encoding of a probe cell's result, keyed
// by the cell fingerprint.
func (c *Checkpoint) Probe(fp string) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.data.Probes[fp]
	if ok {
		c.stats.ProbeHits++
		obs.DedupHits.Inc()
	} else {
		c.stats.ProbeMisses++
	}
	return raw, ok
}

// PutProbe caches a probe cell's result (any JSON-encodable value) under
// the cell fingerprint and flushes according to FlushEvery, so a killed
// campaign resumes past every deterministic probe that completed.
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
	if c.data.Probes == nil {
		c.data.Probes = make(map[string]json.RawMessage)
	}
	c.data.Probes[fp] = raw
	c.markDirty(fp)
	c.dirty++
	every := c.FlushEvery
	if every <= 0 {
		every = 1
	}
	if c.dirty >= every {
		return c.flushLocked()
	}
	return nil
}

// Flush forces pending state to disk.
func (c *Checkpoint) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// marshalLocked renders the v2 byte image of the current state: header
// line, entries in sorted-key order (so identical state always produces
// identical bytes), digest trailer. Requires c.mu held.
func (c *Checkpoint) marshalLocked() ([]byte, error) { return c.marshalShard(-1) }

// marshalShardLocked renders shard i's byte image: the same v2 format,
// restricted to entries whose cell-group key hashes to i, with the
// sharded header. Requires c.mu held.
func (c *Checkpoint) marshalShardLocked(i int) ([]byte, error) { return c.marshalShard(i) }

// marshalShard is the shared renderer; shard -1 means "everything,
// single-file header".
func (c *Checkpoint) marshalShard(shard int) ([]byte, error) {
	var buf bytes.Buffer
	writeLine := func(l ckptLine) error {
		raw, err := json.Marshal(l)
		if err != nil {
			return err
		}
		buf.Write(raw)
		buf.WriteByte('\n')
		return nil
	}
	keep := func(key string) bool {
		return shard < 0 || shardOf(key, c.shardN) == shard
	}
	hdr := ckptLine{Format: checkpointFormat, Version: checkpointVersion}
	if shard >= 0 {
		hdr.Shard = shard
		hdr.Shards = c.shardN
	}
	if err := writeLine(hdr); err != nil {
		return nil, err
	}
	for _, fp := range sortedKeys(c.data.Sweeps) {
		if !keep(fp) {
			continue
		}
		sw := c.data.Sweeps[fp]
		for _, seed := range sortedKeys(sw.Done) {
			data, err := json.Marshal(sw.Done[seed])
			if err != nil {
				return nil, err
			}
			if err := writeLine(ckptLine{K: lineSweep, FP: fp, Seed: seed,
				Sum: entrySum(lineSweep, fp, seed, data), Data: data}); err != nil {
				return nil, err
			}
		}
	}
	for _, fp := range sortedKeys(c.data.Probes) {
		if !keep(fp) {
			continue
		}
		data := c.data.Probes[fp]
		if err := writeLine(ckptLine{K: lineProbe, FP: fp,
			Sum: entrySum(lineProbe, fp, "", data), Data: data}); err != nil {
			return nil, err
		}
	}
	for _, name := range sortedKeys(c.data.Outputs) {
		if !keep(name) {
			continue
		}
		data, err := json.Marshal(c.data.Outputs[name].Text)
		if err != nil {
			return nil, err
		}
		if err := writeLine(ckptLine{K: lineOutput, Name: name,
			Sum: entrySum(lineOutput, name, "", data), Data: data}); err != nil {
			return nil, err
		}
	}
	h := sha256.Sum256(buf.Bytes())
	if err := writeLine(ckptLine{K: lineDigest, Sum: hex.EncodeToString(h[:])}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// flushLocked writes pending state to disk atomically through the FS
// seam: the whole file in single-file mode, only the dirty shards in
// sharded mode. Requires c.mu held.
func (c *Checkpoint) flushLocked() error {
	if c.shardN > 0 {
		return c.flushShardsLocked()
	}
	raw, err := c.marshalLocked()
	if err != nil {
		return fmt.Errorf("sim: marshal checkpoint: %w", err)
	}
	fs := c.fs
	if fs == nil {
		fs = iofault.OS{}
	}
	span := obs.StartSpan("checkpoint-flush", "checkpoint", "path", c.path)
	if err := atomicWrite(fs, filepath.Dir(c.path), c.path, raw); err != nil {
		span.End("outcome", "err")
		return err
	}
	span.End("outcome", "ok")
	obs.CheckpointFlushes.Inc()
	c.dirty = 0
	return nil
}

// atomicWrite writes raw to path with the crash-consistent dance: temp
// file in dir, write, fsync, close, rename over the target. Any failure
// removes the temp file and leaves the previous target untouched.
func atomicWrite(fs iofault.FS, dir, path string, raw []byte) error {
	tmp, err := fs.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("sim: checkpoint temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		fs.Remove(tmpName)
		return fmt.Errorf("sim: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fs.Remove(tmpName)
		return fmt.Errorf("sim: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		fs.Remove(tmpName)
		return fmt.Errorf("sim: close checkpoint: %w", err)
	}
	if err := fs.Rename(tmpName, path); err != nil {
		fs.Remove(tmpName)
		return fmt.Errorf("sim: rename checkpoint: %w", err)
	}
	return nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// seedKey renders a seed as a stable JSON map key.
func seedKey(seed uint64) string { return fmt.Sprintf("%#x", seed) }

// Fingerprint hashes the JSON encoding of the config (Factory is
// excluded via its json:"-" tag; FactoryLabel stands in for it), the
// technique name and the sorted seed set, so any change to the
// experiment changes the key instead of silently reusing results.
//
// The checkpoint keys sweep results with seeds == nil: a per-seed Result
// depends only on (config, technique, seed), and the seed is the entry's
// second key, so sweeps over overlapping seed lists share their runs
// (see NewSweep). The seed-list form identifies a whole sweep, for
// callers that name one; checkpoints written when sweeps were keyed by
// it miss once and re-simulate.
func Fingerprint(cfg Config, technique string, seeds []uint64) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// Encoding errors are impossible for these types; ignore them so the
	// fingerprint is infallible at call sites.
	_ = enc.Encode(cfg)
	_ = enc.Encode(technique)
	sorted := append([]uint64(nil), seeds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	_ = enc.Encode(sorted)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ProbeFingerprint derives the checkpoint key for one probe cell from
// its stable cell key. The key must encode every parameter the probe's
// result depends on (device scale, seeds, trial counts); the campaign
// layer's key builders guarantee that.
func ProbeFingerprint(key string) string {
	h := sha256.Sum256([]byte("probe\x00" + key))
	return hex.EncodeToString(h[:16])
}

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
