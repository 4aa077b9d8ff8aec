package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"tivapromi/internal/campaign"
	"tivapromi/internal/chaostest"
	"tivapromi/internal/sim"
)

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
	ev := chaostest.TestScaleEval()
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
// -resume invocation simulates nothing and renders the same bytes.
func TestKilledCampaignResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation pipeline; skipped in -short")
	}
	ev := chaostest.TestScaleEval()

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
	if err := resumed.runSections(context.Background(), sectionNames()); err != nil {
		t.Fatal(err)
	}
	if refBuf.String() != resumedBuf.String() {
		t.Fatalf("resumed output differs from a from-scratch run:\n%s",
			firstDiff(refBuf.String(), resumedBuf.String()))
	}

	// Phase 3: a second -resume finds every result in the checkpoint and
	// re-renders the same bytes.
	again, againBuf := newTestApp(ev, 4)
	again.runner = load()
	if err := again.runSections(context.Background(), sectionNames()); err != nil {
		t.Fatal(err)
	}
	if refBuf.String() != againBuf.String() {
		t.Fatalf("second resume differs from a from-scratch run:\n%s", firstDiff(refBuf.String(), againBuf.String()))
	}
	if st := again.runner.Checkpoint.CacheStats(); st.SweepMisses != 0 || st.ProbeMisses != 0 || st.Hits() == 0 {
		t.Fatalf("second resume simulated: %d sweep and %d probe misses, %d hits", st.SweepMisses, st.ProbeMisses, st.Hits())
	}
}

// TestResumeWithMoreSeedsRendersFresh raises -seeds against a
// checkpoint under -resume: the section renders from the wider sweep,
// equal to a fresh run at the new seed count, and the earlier seed is
// reused rather than re-simulated.
func TestResumeWithMoreSeedsRendersFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("three-seed fig4 sweeps; skipped in -short")
	}
	narrow, wide := chaostest.TestScaleEval(), chaostest.TestScaleEval()
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
	a, buf := newTestApp(chaostest.TestScaleEval(), 2)
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

// TestParseArgs pins the positional grammar: a list of sections runs
// every one of them, in order; an unknown name anywhere in the list, or
// anything after a standalone command, is refused.
func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		cmd      string
		sections []string
		ok       bool
	}{
		{args: []string{"table1", "table2"}, sections: []string{"table1", "table2"}, ok: true},
		{args: []string{"flooding"}, sections: []string{"flooding"}, ok: true},
		{args: []string{"all"}, sections: sectionNames(), ok: true},
		{args: []string{"serve"}, cmd: "serve", ok: true},
		{args: []string{"chaos"}, cmd: "chaos", ok: true},
		{args: []string{"serve-chaos"}, cmd: "serve-chaos", ok: true},
		{args: nil},
		{args: []string{"table1", "bogus"}},
		{args: []string{"bogus", "table1"}},
		{args: []string{"all", "table1"}},
		{args: []string{"chaos", "table1"}},
		{args: []string{"serve-chaos", "serve"}},
		{args: []string{"serve", "table1"}},
		{args: []string{"table1", "all"}},
	} {
		cmd, sections, err := parseArgs(tc.args)
		if !tc.ok {
			if err == nil {
				t.Errorf("parseArgs(%q) accepted: cmd %q sections %q", tc.args, cmd, sections)
			}
			continue
		}
		if err != nil || cmd != tc.cmd || !slices.Equal(sections, tc.sections) {
			t.Errorf("parseArgs(%q) = %q, %q, %v; want %q, %q", tc.args, cmd, sections, err, tc.cmd, tc.sections)
		}
	}
}

// TestParseGeometry pins the -geometry grammar: exactly four decimal
// fields, nothing after them, and a refresh interval that divides the
// row count.
func TestParseGeometry(t *testing.T) {
	for _, tc := range []struct {
		spec       string
		ok         bool
		rows, ref  int
		ranks, bgs int
	}{
		{spec: "1x8x4x65536", ok: true, rows: 65536, ref: 8192, ranks: 1, bgs: 8},
		{spec: "2x4x4x65536", ok: true, rows: 65536, ref: 8192, ranks: 2, bgs: 4},
		{spec: "1x8x4x65536junk"},
		{spec: "1x8x4x65536x9"},
		{spec: "1x8x4"},
		{spec: "1x8x4x"},
		// Not a multiple of the default RefInt: an eighth of the rows.
		{spec: "1x8x4x1000", ok: true, rows: 1000, ref: 125, ranks: 1, bgs: 8},
		// rows/8 = 12 does not divide 100 either: Validate refuses.
		{spec: "1x8x4x100"},
	} {
		p, err := parseGeometry(tc.spec)
		if !tc.ok {
			if err == nil {
				t.Errorf("parseGeometry(%q) accepted %+v, want an error", tc.spec, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseGeometry(%q): %v", tc.spec, err)
			continue
		}
		if p.RowsPerBank != tc.rows || p.RefInt != tc.ref || p.Ranks != tc.ranks || p.BankGroups != tc.bgs || p.Banks != 4 {
			t.Errorf("parseGeometry(%q) = ranks %d groups %d banks %d rows %d refint %d, want %d/%d/4/%d/%d",
				tc.spec, p.Ranks, p.BankGroups, p.Banks, p.RowsPerBank, p.RefInt, tc.ranks, tc.bgs, tc.rows, tc.ref)
		}
	}
}
