package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tivapromi/internal/chaostest"
	"tivapromi/internal/obs"
)

// TestObsNeverPerturbsResults is the observability determinism property:
// the same campaign run (a) with everything off, (b) with metrics +
// tracer + event sink all on must render byte-identical stdout. Obs is
// strictly a write-only tap — if instrumentation ever feeds back into a
// simulation decision, a command buffer, or render order, this fails.
func TestObsNeverPerturbsResults(t *testing.T) {
	ev := chaostest.TestScaleEval()
	names := []string{"table2", "flooding", "aggressors"}

	run := func(obsOn bool) string {
		prevMetrics := obs.MetricsEnabled()
		defer obs.SetMetricsEnabled(prevMetrics)
		defer obs.SetTracer(nil)
		defer obs.SetEventSink(nil)
		obs.SetMetricsEnabled(obsOn)
		if obsOn {
			obs.SetTracer(obs.NewTracer())
			var events bytes.Buffer
			obs.SetEventSink(&events)
		} else {
			obs.SetTracer(nil)
			obs.SetEventSink(nil)
		}
		a, buf := newTestApp(ev, 4)
		if err := a.runSections(context.Background(), names); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	off := run(false)
	on := run(true)
	if off != on {
		t.Fatalf("obs perturbed the rendered output:\n--- obs off ---\n%s\n--- obs on ---\n%s",
			firstDiff(off, on), firstDiff(on, off))
	}
	if !strings.Contains(off, "Table II") {
		t.Fatalf("sanity: expected table2 in output, got:\n%.200s", off)
	}
}

// TestObsArtifactsWritten runs a small campaign with the tracer armed
// and checks both artifacts: the metrics dump is Prometheus text
// containing the expected families, and the trace is valid Chrome
// trace-event JSON with at least the campaign-cell and run-attempt
// spans.
func TestObsArtifactsWritten(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	tracePath := filepath.Join(dir, "trace.json")

	prev := obs.CurrentTracer()
	obs.SetTracer(obs.NewTracer())
	defer obs.SetTracer(prev)

	// flooding actually simulates (table2 is analytic and would record no
	// spans), so the trace carries cell and run-attempt spans.
	a, _ := newTestApp(chaostest.TestScaleEval(), 2)
	if err := a.runSections(context.Background(), []string{"flooding"}); err != nil {
		t.Fatal(err)
	}
	if err := writeObsArtifacts(metricsPath, tracePath); err != nil {
		t.Fatal(err)
	}

	prom, err := readFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"# TYPE tivapromi_accesses_total counter",
		"# TYPE tivapromi_cells_completed_total counter",
		"# TYPE tivapromi_run_attempts_total counter",
	} {
		if !strings.Contains(prom, family) {
			t.Errorf("metrics dump missing %q", family)
		}
	}

	raw, err := readFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	want := map[string]bool{"cell": false, "run-attempt": false}
	for _, ev := range doc.TraceEvents {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace has no %q span", name)
		}
	}
}

func readFile(path string) (string, error) {
	raw, err := os.ReadFile(path)
	return string(raw), err
}
