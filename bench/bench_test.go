package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"tivapromi/internal/campaign"
	"tivapromi/internal/dram"
	"tivapromi/internal/obs"
)

func TestTailPermille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 0}, {19, 0}, {20, 500}, {39, 500}, {40, 750}, {99, 750},
		{100, 900}, {199, 900}, {200, 950}, {999, 950}, {1000, 990}, {10000, 999},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    int
		want float64
	}{{0, 1}, {500, 3}, {750, 4}, {1000, 5}, {900, 4.6}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %d) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := tail([]float64{7, 9, 8}, 3); got != 9 {
		t.Errorf("tail of a round too small for a percentile = %v, want the maximum 9", got)
	}
}

// The wanted values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 10.5, 11, 12, 9.5}, [3]float64{9.75, 10.5, 11.5}},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.want[0]) > 1e-12 || math.Abs(q2-c.want[1]) > 1e-12 || math.Abs(q3-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be defined")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestRegressed(t *testing.T) {
	for _, c := range []struct {
		base, cur float64
		better    string
		want      bool
	}{
		{10, 11, "lower", false},
		{10, 11.01, "lower", true},
		{10, 5, "lower", false},
		{10, 9, "higher", false},
		{10, 8.99, "higher", true},
		{10, 20, "higher", false},
	} {
		if got := regressed(c.base, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("regressed(%v -> %v, %s, 10%%) = %v, want %v", c.base, c.cur, c.better, got, c.want)
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the
// program reports; on a mismatch the test prints what it should say.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []entry, want []metric) {
		var lines []string
		ok := len(got) == len(want)
		for i, m := range want {
			lines = append(lines, `    {"name": "`+m.name+`", "unit": "`+m.unit+`", "better": "`+m.better+`"}`)
			if ok && (got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better) {
				ok = false
			}
		}
		if !ok {
			t.Errorf("BENCHMARK.json %s does not match the program; want:\n%s", kind, strings.Join(lines, ",\n"))
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// tinyEval is a few cheap sections at one seed and one window.
func tinyEval() evalScale {
	ev := campaign.DefaultEval()
	ev.SeedsPerPoint, ev.Base.Windows, ev.Trials = 1, 1, 2
	return evalScale{eval: ev, sections: []string{"table1", "table2", "fig4", "flooding", "refreshpolicies"}}
}

// tinyGeoms shrinks both sim-direct geometries to one short window; the
// full DIMM keeps its 2M sparse rows.
func tinyGeoms() []simGeom {
	full := dram.FullDIMMParams()
	full.RefInt = 1024
	return []simGeom{
		{name: "scaled", params: dram.ScaledParams(), windows: 1, seeds: 1, stages: true},
		{name: "fulldimm", params: full, windows: 1, seeds: 1},
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks that each reports every metric of its pass, finite, with
// no failed operation. Reconciliation checks compare timings and are
// too noisy at this scale to hold the smoke test to.
func TestSmoke(t *testing.T) {
	runs := map[string]func(context.Context, *runEnv) (*measurement, error){
		"eval-cold": func(ctx context.Context, env *runEnv) (*measurement, error) {
			return runEvalCold(ctx, env, tinyEval(), nil)
		},
		"eval-durable": func(ctx context.Context, env *runEnv) (*measurement, error) {
			return runEvalDurable(ctx, env, tinyEval(), nil, 3)
		},
		"serve-mixed": func(ctx context.Context, env *runEnv) (*measurement, error) {
			return runServeMixed(ctx, env, serveScale{jobs: 10, sections: []string{"fig4", "aggressors", "flooding"}, windows: 1, seeds: 1})
		},
		"sim-direct": func(ctx context.Context, env *runEnv) (*measurement, error) {
			return runSimDirect(ctx, env, tinyGeoms(), nil)
		},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			env := &runEnv{seed: 3, workers: 2, work: t.TempDir()}
			if traced {
				env.lay = newLayers()
				obs.SetTracer(obs.NewTracer())
			}
			m, err := runs[w.name](context.Background(), env)
			obs.SetTracer(nil)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			for _, f := range m.failures {
				if !strings.Contains(f, "reconciliation") {
					t.Errorf("%s (traced %v): %s", w.name, traced, f)
				}
			}
			catalogue, values := metricsOf(m, env.lay)
			for _, mt := range catalogue {
				v, ok := values[mt.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s (traced %v): %s = %v, emitted %v", w.name, traced, mt.name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, mt.name, v)
				}
			}
			if m.attempted == 0 {
				t.Errorf("%s (traced %v): attempted nothing", w.name, traced)
			}
		}
	}
}
