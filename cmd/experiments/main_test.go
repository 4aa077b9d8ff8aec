package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/dram"
	"tivapromi/internal/sim"
)

// testEval shrinks the evaluation so the full `all` pipeline runs in
// seconds: one seed, one window, and — crucially — the security probes
// at the scaled device instead of the paper's full Table I scale.
func testEval() campaign.Eval {
	ev := campaign.DefaultEval()
	ev.SeedsPerPoint = 1
	ev.Base.Windows = 1
	ev.Trials = 2
	// Quarter the scaled device again: the pipeline's structure is what
	// is under test here, not the physics.
	p := dram.ScaledParams()
	p.RowsPerBank /= 4
	p.RefInt /= 4
	p.FlipThreshold /= 4
	ev.Base.Params = p
	ev.Probe = p
	ev.Thresholds = []uint32{p.FlipThreshold, p.FlipThreshold / 2}
	return ev
}

func newTestApp(ev campaign.Eval, workers int) (*app, *bytes.Buffer) {
	var buf bytes.Buffer
	return &app{
		ev:      ev,
		workers: workers,
		runner:  sim.NewRunner(),
		stdout:  &buf,
	}, &buf
}

// TestAllByteIdenticalAcrossWorkers is the golden guarantee of the
// campaign engine: `experiments all` emits the same bytes at one worker
// and at eight, because rendering happens after execution in registry
// order.
func TestAllByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation pipeline; skipped in -short")
	}
	ev := testEval()
	run := func(workers int) string {
		a, buf := newTestApp(ev, workers)
		if err := a.runSections(context.Background(), sectionNames()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatalf("output differs between -workers 1 and -workers 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			firstDiff(serial, parallel), firstDiff(parallel, serial))
	}
	for _, name := range sectionNames() {
		if name == "table1" || name == "fig4" {
			continue // these sections' titles don't contain their registry name
		}
		if !strings.Contains(strings.ToLower(serial), name[:4]) {
			t.Errorf("output seems to be missing section %q", name)
		}
	}
}

// TestKilledCampaignResumesByteIdentical kills a checkpointed run
// mid-campaign (context cancellation, the in-process equivalent of
// SIGINT) and checks that the resumed run completes from the checkpoint
// and reproduces a from-scratch run byte for byte — then that a second
// -resume invocation replays the cached sections verbatim.
func TestKilledCampaignResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation pipeline; skipped in -short")
	}
	ev := testEval()

	// Reference: no checkpoint at all.
	ref, refBuf := newTestApp(ev, 4)
	if err := ref.runSections(context.Background(), sectionNames()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck.json")
	load := func() *sim.Runner {
		ck, err := sim.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRunner()
		r.Checkpoint = ck
		return r
	}

	// Phase 1: kill the campaign partway through, once a few cells have
	// completed (and been checkpointed).
	killed, _ := newTestApp(ev, 4)
	killed.runner = load()
	ctx, cancel := context.WithCancel(context.Background())
	killed.progress = &cancelAfterLines{n: 5, cancel: cancel}
	err := killed.runSections(ctx, sectionNames())
	cancel()
	if err == nil {
		t.Fatal("campaign finished despite the kill")
	}

	// Phase 2: resume in a "new process" and finish.
	resumed, resumedBuf := newTestApp(ev, 4)
	resumed.runner = load()
	resumed.resume = true
	if err := resumed.runSections(context.Background(), sectionNames()); err != nil {
		t.Fatal(err)
	}
	if refBuf.String() != resumedBuf.String() {
		t.Fatalf("resumed output differs from a from-scratch run:\n%s",
			firstDiff(refBuf.String(), resumedBuf.String()))
	}

	// Phase 3: a second -resume replays every section from the cache.
	replay, replayBuf := newTestApp(ev, 4)
	replay.runner = load()
	replay.resume = true
	start := time.Now()
	if err := replay.runSections(context.Background(), sectionNames()); err != nil {
		t.Fatal(err)
	}
	if refBuf.String() != replayBuf.String() {
		t.Fatal("replayed output differs from the original")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("replay recomputed instead of replaying (%s)", d)
	}
}

// TestResumeWithMoreSeedsRendersFresh raises -seeds against a
// checkpoint under -resume: the section must re-render from the wider
// sweep, equal to a fresh run at the new seed count, instead of
// replaying the narrower sweep's cached output. The earlier seed is
// reused rather than re-simulated.
func TestResumeWithMoreSeedsRendersFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("three-seed fig4 sweeps; skipped in -short")
	}
	narrow, wide := testEval(), testEval()
	narrow.SeedsPerPoint, wide.SeedsPerPoint = 1, 3

	fresh, freshBuf := newTestApp(wide, 2)
	if err := fresh.runSections(context.Background(), []string{"fig4"}); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck.json")
	run := func(ev campaign.Eval) (string, sim.CacheStats) {
		ck, err := sim.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		a, buf := newTestApp(ev, 2)
		a.runner.Checkpoint = ck
		a.resume = true
		if err := a.runSections(context.Background(), []string{"fig4"}); err != nil {
			t.Fatal(err)
		}
		return buf.String(), ck.CacheStats()
	}
	run(narrow)
	got, st := run(wide)
	if got != freshBuf.String() {
		t.Fatalf("-resume at -seeds 3 differs from a fresh -seeds 3 run:\n%s", firstDiff(freshBuf.String(), got))
	}
	techs := int64(len(sim.TechniqueNames()))
	if st.SweepHits != techs || st.SweepMisses != 2*techs {
		t.Fatalf("cache: %d hits, %d misses; want %d hits (the first seed of each sweep), %d misses",
			st.SweepHits, st.SweepMisses, techs, 2*techs)
	}
}

// cancelAfterLines is a progress writer that cancels the campaign once
// it has reported n cells.
type cancelAfterLines struct {
	mu     sync.Mutex
	n      int
	cancel context.CancelFunc
}

func (w *cancelAfterLines) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n -= bytes.Count(p, []byte("\n")); w.n <= 0 {
		w.cancel()
	}
	return len(p), nil
}

// TestSingleSectionHasNoTrailingBlank pins the CLI formatting contract:
// one section renders without the blank separator `all` appends.
func TestSingleSectionHasNoTrailingBlank(t *testing.T) {
	a, buf := newTestApp(testEval(), 2)
	if err := a.runSections(context.Background(), []string{"table2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Table II") {
		t.Fatalf("unexpected table2 output:\n%s", out)
	}
	if strings.HasSuffix(out, "\n\n") {
		t.Fatal("single section emitted a trailing blank line")
	}
}

// TestLatencySectionMatchesGolden pins the cycle-level scheduler's
// published numbers: the latency section rendered at the default
// evaluation must equal its block in experiments_output.txt byte for
// byte.
func TestLatencySectionMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full-window scheduler probes; skipped in -short")
	}
	golden, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	const title = "Request latency under attack"
	start := strings.Index(string(golden), title)
	if start < 0 {
		t.Fatalf("experiments_output.txt has no %q block", title)
	}
	want := string(golden[start:])
	if end := strings.Index(want, "\n\n"); end >= 0 {
		want = want[:end+1]
	}
	a, buf := newTestApp(campaign.DefaultEval(), 2)
	if err := a.runSections(context.Background(), []string{"latency"}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("latency section differs from experiments_output.txt:\n%s", firstDiff(want, got))
	}
}

// firstDiff returns a few lines around the first divergence, keeping
// failure output readable.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			lo := i - 2
			if lo < 0 {
				lo = 0
			}
			hi := i + 3
			if hi > len(al) {
				hi = len(al)
			}
			return strings.Join(al[lo:hi], "\n")
		}
	}
	if len(al) != len(bl) {
		return "outputs differ in length"
	}
	return "outputs identical"
}
