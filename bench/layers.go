package main

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/iofault"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/obs"
	"tivapromi/internal/sim"
)

// layers collects the traced pass's per-layer numbers by name.
type layers struct {
	mu sync.Mutex
	m  map[string]float64
}

func newLayers() *layers { return &layers{m: map[string]float64{}} }

func (l *layers) set(name string, v float64) {
	l.mu.Lock()
	l.m[name] = v
	l.mu.Unlock()
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.m[name] += v
	l.mu.Unlock()
}

func (l *layers) get(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m[name]
}

// span records a finished interval in the trace under the benchmark's
// own category; a no-op when no tracer is installed.
func span(name string, start, end time.Time, kv ...string) {
	obs.SpanBetween(name, "bench", start, end, kv...)
}

// runClass buckets one simulation run for the sim.run_s.* split.
func runClass(cfg sim.Config, technique string) string {
	switch {
	case cfg.Fault.Active():
		return "faulted"
	case technique == "":
		return "none"
	case technique == "PARA":
		return "para"
	case strings.HasSuffix(technique, "PRoMi") || technique == "ablation":
		return "promi"
	default:
		return "other"
	}
}

// accessesOf is the number of accesses one run of cfg simulates.
func accessesOf(cfg sim.Config) uint64 {
	return uint64(cfg.Windows) * uint64(cfg.Params.RefInt) * uint64(memctrl.AccessesPerInterval(cfg.Params))
}

// probeCategory names the layer metric a probe cell's time counts in.
func probeCategory(key string) string {
	switch {
	case strings.HasPrefix(key, "latency/"):
		return "memctrl.sched_s"
	case strings.Contains(key, "/vuln"):
		return "sim.vuln_s"
	case strings.Contains(key, "flood"):
		return "sim.flood_s"
	default:
		return "sim.probe_other_s"
	}
}

// poolProbe observes campaign executions from outside. It wraps the
// runner's run function and every probe cell's Run, so each interval it
// records is time a pool slot spent inside a simulation: the wrappers
// run after the admission gate, so queue wait is excluded. From the
// same transitions it integrates the pool's idle capacity and finds the
// straggler tail, the final stretch in which the pool never refilled.
// Its OnProgress hook counts the cells that completed.
type poolProbe struct {
	lay     *layers
	workers int

	mu       sync.Mutex
	start    time.Time
	last     time.Time
	inflight int
	idle     float64   // worker-seconds with no attributed work
	dropAt   time.Time // when the pool last fell below full (zero while full)
	dropIdle float64   // idle at dropAt
	busy     float64   // worker-seconds inside runs and probes
	runs     int
	seen     map[string]bool
	dups     int
	counted  bool      // the exact model counts are published
	counts   [4]uint64 // accesses, acts, extra acts, flips
	done     int       // cells completed, from OnProgress
}

func newPoolProbe(lay *layers, workers int) *poolProbe {
	return &poolProbe{lay: lay, workers: workers, seen: map[string]bool{}}
}

// begin opens one observed campaign.
func (p *poolProbe) begin() {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	p.start, p.last, p.dropAt = now, now, now
	p.inflight, p.idle, p.dropIdle, p.busy = 0, 0, 0, 0
}

// transition integrates idle capacity up to now and applies delta to
// the in-flight count. Requires p.mu held.
func (p *poolProbe) transition(now time.Time, delta int) {
	p.idle += float64(p.workers-p.inflight) * now.Sub(p.last).Seconds()
	p.last = now
	wasFull := p.inflight >= p.workers
	p.inflight += delta
	switch {
	case wasFull && p.inflight < p.workers:
		p.dropAt, p.dropIdle = now, p.idle
	case p.inflight >= p.workers:
		p.dropAt = time.Time{}
	}
}

func (p *poolProbe) enter() time.Time {
	now := time.Now()
	p.mu.Lock()
	p.transition(now, +1)
	p.mu.Unlock()
	return now
}

func (p *poolProbe) leave(start time.Time) (time.Time, float64) {
	now := time.Now()
	d := now.Sub(start).Seconds()
	p.mu.Lock()
	p.transition(now, -1)
	p.busy += d
	p.mu.Unlock()
	return now, d
}

// runFn wraps sim.RunCtx, the production run function.
func (p *poolProbe) runFn(ctx context.Context, cfg sim.Config, technique string) (sim.Result, error) {
	t0 := p.enter()
	res, err := sim.RunCtx(ctx, cfg, technique)
	t1, d := p.leave(t0)
	class := runClass(cfg, technique)
	p.lay.add("sim.run_s", d)
	p.lay.add("sim.run_s."+class, d)
	fp := sim.Fingerprint(cfg, technique, nil)
	p.mu.Lock()
	p.runs++
	if p.seen[fp] {
		p.dups++
	}
	p.seen[fp] = true
	if !p.counted && err == nil {
		p.counts[0] += accessesOf(cfg)
		p.counts[1] += res.TotalActs
		p.counts[2] += res.ExtraActs
		p.counts[3] += uint64(res.Flips)
	}
	p.mu.Unlock()
	span("bench.run", t0, t1, "technique", technique, "class", class)
	return res, err
}

// wrapProbes returns spec with every probe cell's Run timed.
func (p *poolProbe) wrapProbes(spec campaign.Spec) campaign.Spec {
	cells := append([]campaign.Cell(nil), spec.Cells...)
	for i := range cells {
		if cells[i].IsSweep() {
			continue
		}
		inner, key := cells[i].Run, cells[i].Key
		cells[i].Run = func(ctx context.Context, v any) error {
			t0 := p.enter()
			err := inner(ctx, v)
			t1, d := p.leave(t0)
			cat := probeCategory(key)
			p.lay.add(cat, d)
			span("bench.probe", t0, t1, "cell", key, "layer", cat)
			return err
		}
	}
	spec.Cells = cells
	return spec
}

// instrument installs the wrappers on a runner copy, a spec copy and
// the options' progress hook, which keeps calling any hook already set.
func (p *poolProbe) instrument(spec campaign.Spec, opts campaign.Options) (campaign.Spec, campaign.Options) {
	r := opts.Runner
	if r == nil {
		r = sim.NewRunner()
	}
	rc := *r
	rc.Config.SetRunFnForTest(p.runFn)
	opts.Runner = &rc
	inner := opts.OnProgress
	opts.OnProgress = func(ev campaign.Progress) {
		if ev.Cell != "" {
			p.mu.Lock()
			p.done++
			p.mu.Unlock()
		}
		if inner != nil {
			inner(ev)
		}
	}
	return p.wrapProbes(spec), opts
}

// end closes the observed campaign at t and records its pool figures.
// Reconciliation (a): attributed time cannot exceed the pool's capacity
// by more than 5%, or some wrapper is counting queue wait; and every
// one of the campaign's cells must have reported completion.
func (p *poolProbe) end(t time.Time, cells int) (ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.transition(t, 0)
	run := t.Sub(p.start).Seconds()
	capacity := float64(p.workers) * run
	tailIdle, tail := 0.0, 0.0
	if !p.dropAt.IsZero() {
		tailIdle, tail = p.idle-p.dropIdle, t.Sub(p.dropAt).Seconds()
	}
	midIdle := p.idle - tailIdle
	p.lay.set("campaign.run_s", run)
	p.lay.set("campaign.busy_frac", p.busy/capacity)
	p.lay.set("campaign.tail_s", tail)
	p.lay.set("campaign.unattributed_frac", midIdle/capacity)
	p.publishRunsLocked()
	return p.busy <= 1.05*capacity && p.done == cells
}

// publishRuns records the run counts and the exact model counts of the
// runs observed so far; later runs no longer change the model counts.
func (p *poolProbe) publishRuns() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.publishRunsLocked()
}

func (p *poolProbe) publishRunsLocked() {
	p.lay.set("campaign.cells", float64(p.done))
	p.lay.set("sim.runs", float64(p.runs))
	p.lay.set("sim.dup_runs", float64(p.dups))
	if p.counted {
		return
	}
	p.counted = true
	for i, name := range []string{"sim.accesses", "sim.acts", "sim.extra_acts", "sim.flips"} {
		p.lay.set(name, float64(p.counts[i]))
	}
}

// ioStats counts one store's traffic through the FS seam.
type ioStats struct {
	mu         sync.Mutex
	readBytes  int64
	writeBytes int64
	writeTime  time.Duration
	fsyncs     int
	renames    int
}

func (s *ioStats) wrote(n int, d time.Duration) {
	s.mu.Lock()
	s.writeBytes += int64(n)
	s.writeTime += d
	s.mu.Unlock()
}

func (s *ioStats) synced(d time.Duration) {
	s.mu.Lock()
	s.fsyncs++
	s.writeTime += d
	s.mu.Unlock()
}

func (s *ioStats) snapshot() (read, written int64, wt time.Duration, fsyncs, renames int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readBytes, s.writeBytes, s.writeTime, s.fsyncs, s.renames
}

// countingFS is an iofault.FS over iofault.OS that attributes every
// operation to the store owning the directory it touches: the checkpoint
// cache or the serve journal.
type countingFS struct {
	inner      iofault.FS
	journalDir string
	ckpt, jrnl ioStats
}

func newCountingFS(journalDir string) *countingFS {
	return &countingFS{inner: iofault.OS{}, journalDir: filepath.Clean(journalDir)}
}

func (f *countingFS) stats(path string) *ioStats {
	if f.journalDir != "" && filepath.Dir(filepath.Clean(path)) == f.journalDir {
		return &f.jrnl
	}
	return &f.ckpt
}

func (f *countingFS) ReadFile(path string) ([]byte, error) {
	raw, err := f.inner.ReadFile(path)
	s := f.stats(path)
	s.mu.Lock()
	s.readBytes += int64(len(raw))
	s.mu.Unlock()
	return raw, err
}

func (f *countingFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	t0 := time.Now()
	file, err := f.inner.CreateTemp(dir, pattern)
	s := f.stats(filepath.Join(dir, "x"))
	s.wrote(0, time.Since(t0))
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, s: s}, nil
}

func (f *countingFS) OpenAppend(path string) (iofault.File, error) {
	t0 := time.Now()
	file, err := f.inner.OpenAppend(path)
	s := f.stats(path)
	s.wrote(0, time.Since(t0))
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, s: s}, nil
}

func (f *countingFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *countingFS) Rename(oldpath, newpath string) error {
	t0 := time.Now()
	err := f.inner.Rename(oldpath, newpath)
	s := f.stats(newpath)
	s.mu.Lock()
	s.renames++
	s.writeTime += time.Since(t0)
	s.mu.Unlock()
	return err
}

func (f *countingFS) Remove(path string) error   { return f.inner.Remove(path) }
func (f *countingFS) MkdirAll(path string) error { return f.inner.MkdirAll(path) }

// countingFile times a file handle's writes, syncs and close.
type countingFile struct {
	iofault.File
	s *ioStats
}

func (c *countingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.File.Write(p)
	c.s.wrote(n, time.Since(t0))
	return n, err
}

func (c *countingFile) Sync() error {
	t0 := time.Now()
	err := c.File.Sync()
	c.s.synced(time.Since(t0))
	return err
}

func (c *countingFile) Close() error {
	t0 := time.Now()
	err := c.File.Close()
	c.s.wrote(0, time.Since(t0))
	return err
}

// ckptSnapshot is the checkpoint store's traffic so far (zero for a nil
// FS, the untraced pass).
func (f *countingFS) ckptSnapshot() (read, written int64, wt time.Duration, fsyncs, renames int) {
	if f == nil {
		return 0, 0, 0, 0, 0
	}
	return f.ckpt.snapshot()
}

// recordCheckpointWrites publishes the checkpoint store's write figures.
func recordCheckpointWrites(lay *layers, fs *countingFS) {
	_, written, wt, fsyncs, renames := fs.ckptSnapshot()
	lay.set("sim.checkpoint.write_s", wt.Seconds())
	lay.set("sim.checkpoint.write_bytes", float64(written))
	lay.set("sim.checkpoint.fsyncs", float64(fsyncs))
	lay.set("sim.checkpoint.renames", float64(renames))
}
