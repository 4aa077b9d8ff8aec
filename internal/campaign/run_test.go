package campaign

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tivapromi/internal/obs"
	"tivapromi/internal/sim"
)

// fastConfig keeps campaign tests quick: one window, scaled device.
func fastConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Windows = 1
	return cfg
}

// testSpec builds a small mixed spec: two sweep cells and one probe
// cell backed by a counter, so tests can observe probe executions.
func testSpec(probeRuns *atomic.Int32) Spec {
	var s Spec
	s.Name = "test"
	s.AddSweep("sweep/PARA", fastConfig(), "PARA", sim.Seeds(1, 2))
	s.AddSweep("sweep/LoLiPRoMi", fastConfig(), "LoLiPRoMi", sim.Seeds(1, 2))
	s.AddProbe("probe/answer",
		func() any { return new(int) },
		func(ctx context.Context, v any) error {
			if probeRuns != nil {
				probeRuns.Add(1)
			}
			*v.(*int) = 42
			return nil
		})
	return s
}

func TestRunValidatesCells(t *testing.T) {
	cases := map[string]Spec{
		"empty key":      {Name: "bad", Cells: []Cell{{Key: "", sweep: true, Seeds: []uint64{1}}}},
		"sweep no seeds": {Name: "bad", Cells: []Cell{{Key: "x", sweep: true}}},
		"probe no run":   {Name: "bad", Cells: []Cell{{Key: "x"}}},
		"duplicate keys": {Name: "bad", Cells: []Cell{
			{Key: "x", sweep: true, Seeds: []uint64{1}},
			{Key: "x", sweep: true, Seeds: []uint64{1}},
		}},
	}
	for name, spec := range cases {
		if _, err := Run(context.Background(), spec, Options{}); err == nil {
			t.Errorf("%s: Run accepted an invalid spec", name)
		}
	}
}

func TestRunEmptySpec(t *testing.T) {
	rs, err := Run(context.Background(), Spec{Name: "empty"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Keys()) != 0 || rs.Err() != nil {
		t.Fatalf("empty spec produced %v / %v", rs.Keys(), rs.Err())
	}
}

func TestMergeDeduplicatesByKey(t *testing.T) {
	a, b := testSpec(nil), testSpec(nil)
	b.AddSweep("sweep/extra", fastConfig(), "PARA", sim.Seeds(9, 1))
	m := Merge("merged", a, b)
	if len(m.Cells) != len(a.Cells)+1 {
		t.Fatalf("merge kept %d cells, want %d", len(m.Cells), len(a.Cells)+1)
	}
	if m.Cells[len(m.Cells)-1].Key != "sweep/extra" {
		t.Fatalf("merge reordered cells: last is %q", m.Cells[len(m.Cells)-1].Key)
	}
}

// TestRunDeterministicAcrossWorkers is the engine-level half of the
// byte-identity guarantee: the same spec must produce deeply equal
// results at one worker and at many.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *ResultSet {
		rs, err := Run(context.Background(), testSpec(nil), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		return rs
	}
	serial, parallel := run(1), run(8)
	for _, key := range serial.Keys() {
		a, b := serial.Get(key), parallel.Get(key)
		if !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Errorf("cell %q: summaries differ across worker counts", key)
		}
		if !reflect.DeepEqual(a.Value, b.Value) {
			t.Errorf("cell %q: values differ across worker counts", key)
		}
	}
	v, err := serial.Value("probe/answer")
	if err != nil {
		t.Fatal(err)
	}
	if *v.(*int) != 42 {
		t.Fatalf("probe value = %d, want 42", *v.(*int))
	}
}

// TestRunResumesFromCheckpoint is the campaign-level kill/resume story:
// a second process pointed at the same checkpoint recomputes nothing
// and reproduces identical results.
func TestRunResumesFromCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	var probeRuns atomic.Int32

	ck, err := sim.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := sim.NewRunner()
	r1.Checkpoint = ck
	first, err := Run(context.Background(), testSpec(&probeRuns), Options{Workers: 4, Runner: r1})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	if n := probeRuns.Load(); n != 1 {
		t.Fatalf("probe ran %d times in the first campaign, want 1", n)
	}

	// "New process": reload the checkpoint from disk.
	ck2, err := sim.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	r2 := sim.NewRunner()
	r2.Checkpoint = ck2
	second, err := Run(context.Background(), testSpec(&probeRuns), Options{Workers: 4, Runner: r2})
	if err != nil {
		t.Fatal(err)
	}
	if n := probeRuns.Load(); n != 1 {
		t.Fatalf("probe re-ran on resume (%d executions total)", n)
	}
	if !second.Get("probe/answer").Cached {
		t.Fatal("resumed probe cell not marked cached")
	}
	for _, key := range first.Keys() {
		if !reflect.DeepEqual(first.Get(key).Summary, second.Get(key).Summary) {
			t.Errorf("cell %q: resumed summary differs", key)
		}
		if !reflect.DeepEqual(first.Get(key).Value, second.Get(key).Value) {
			t.Errorf("cell %q: resumed value differs", key)
		}
	}
}

func TestRunRecordsProbeFailuresPerCell(t *testing.T) {
	boom := errors.New("boom")
	var s Spec
	s.Name = "failing"
	s.AddProbe("probe/bad", nil, func(ctx context.Context, v any) error { return boom })
	s.AddProbe("probe/good",
		func() any { return new(int) },
		func(ctx context.Context, v any) error { *v.(*int) = 1; return nil })
	rs, err := Run(context.Background(), s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Err() == nil {
		t.Fatal("failing cell not surfaced by Err()")
	}
	if !errors.Is(rs.Get("probe/bad").Err, boom) {
		t.Fatalf("probe/bad error = %v, want wrapped boom", rs.Get("probe/bad").Err)
	}
	if _, err := rs.Value("probe/good"); err != nil {
		t.Fatalf("healthy sibling cell poisoned: %v", err)
	}
}

func TestRunProgressEvents(t *testing.T) {
	var events []Progress
	rs, err := Run(context.Background(), testSpec(nil), Options{
		Workers:    4,
		OnProgress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(rs.Keys()) {
		t.Fatalf("%d progress events for %d cells", len(events), len(rs.Keys()))
	}
	for i, e := range events {
		if e.Done != i+1 || e.Total != len(rs.Keys()) || e.Campaign != "test" {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, testSpec(nil), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under canceled ctx returned %v", err)
	}
}

func TestDefaultEvalMatchesFlagDefaults(t *testing.T) {
	ev := DefaultEval()
	if ev.SeedsPerPoint != 5 || ev.Trials != 25 || ev.ProbeSeed != 7 {
		t.Fatalf("DefaultEval drifted: %+v", ev)
	}
	if len(ev.Thresholds) == 0 || ev.Thresholds[0] != ev.Probe.FlipThreshold {
		t.Fatalf("threshold sweep must start at the paper threshold, got %v vs %d",
			ev.Thresholds, ev.Probe.FlipThreshold)
	}
}

// TestSpecsAreWellFormed builds every section's spec at default Eval and
// checks structural validity plus key uniqueness across the merged
// evaluation — the invariant `experiments all` depends on.
func TestSpecsAreWellFormed(t *testing.T) {
	ev := DefaultEval()
	builders := []func(Eval) Spec{
		Table1Spec, Table2Spec, Table3Spec, Fig4Spec, FloodingSpec,
		PoliciesSpec, AggressorsSpec, AblationSpec, ExtensionsSpec,
		LatencySpec, ThresholdsSpec, FaultsSpec,
	}
	var specs []Spec
	total := 0
	for _, b := range builders {
		sp := b(ev)
		for _, c := range sp.Cells {
			if err := c.validate(); err != nil {
				t.Errorf("%s: %v", sp.Name, err)
			}
		}
		total += len(sp.Cells)
		specs = append(specs, sp)
	}
	merged := Merge("evaluation", specs...)
	if len(merged.Cells) != total {
		t.Fatalf("cross-section key collision: %d cells merged from %d", len(merged.Cells), total)
	}
	// FaultsSpec schedules canonical cells only; the cells it maps away
	// still count toward the grid the report renders.
	mapped := len(FaultSweepFor(ev).Cells()) - len(FaultsSpec(ev).Cells)
	if mapped != 27 {
		t.Errorf("fault grid maps %d cells to canonical ones, want 27", mapped)
	}
	if total+mapped < 200 {
		t.Fatalf("evaluation grid suspiciously small: %d cells (+%d mapped fault cells)", total, mapped)
	}
}

// TestFaultCanonicalCellsEqual verifies the fault grid's canonical
// mapping instead of assuming it: every cell FaultsSpec leaves out is
// simulated at one seed, and its Summary must equal the one of the cell
// the renderer reads in its place.
func TestFaultCanonicalCellsEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 27 mapped fault cells and their canonical cells")
	}
	ctx := context.Background()
	sc := FaultSweepFor(DefaultEval())
	seeds := sc.Seeds[:1]
	r := sim.NewRunner()
	summary := func(c sim.FaultCell) sim.Summary {
		t.Helper()
		sum, runErrs, err := r.RunSeeds(ctx, sc.CellConfig(c), c.Technique, seeds)
		if err != nil || len(runErrs) != 0 {
			t.Fatalf("%s: %v %v", FaultKey(c), err, runErrs)
		}
		return sum
	}
	canonical := map[sim.FaultCell]sim.Summary{}
	mapped := 0
	for _, c := range sc.Cells() {
		k := sc.Canonical(c)
		if k == c {
			continue
		}
		mapped++
		want, ok := canonical[k]
		if !ok {
			want = summary(k)
			canonical[k] = want
		}
		if got := summary(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s differs from its canonical cell %s:\n got %+v\nwant %+v", FaultKey(c), FaultKey(k), got, want)
		}
	}
	if mapped != 27 {
		t.Errorf("%d cells map to a canonical cell, want 27", mapped)
	}
}

// TestCellSecondsFitThePool checks grouped-cell time attribution: the
// members of a stream-sharing group split their group's time instead of
// each claiming all of it, so the campaign's cell seconds cannot exceed
// what the worker pool had to give.
func TestCellSecondsFitThePool(t *testing.T) {
	const workers = 2
	var s Spec
	s.Name = "pool"
	for _, tech := range sim.TechniqueNames()[:8] {
		s.AddSweep("sweep/"+tech, fastConfig(), tech, sim.Seeds(1, 2))
	}
	before := obs.CellSeconds.Sum()
	start := time.Now()
	rs, err := Run(context.Background(), s, Options{Workers: workers})
	wall := time.Since(start).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if got, limit := obs.CellSeconds.Sum()-before, 1.05*workers*wall; got > limit {
		t.Fatalf("cells charged %.3f s; %d workers over %.3f s of wall give at most %.3f s", got, workers, wall, limit)
	}
}

// evaluationCells returns the merged cells of `experiments all` at its
// defaults.
func evaluationCells() []Cell {
	ev := DefaultEval()
	var specs []Spec
	for _, b := range []func(Eval) Spec{
		Table1Spec, Table2Spec, Table3Spec, Fig4Spec, FloodingSpec,
		PoliciesSpec, AggressorsSpec, AblationSpec, ExtensionsSpec,
		LatencySpec, ThresholdsSpec, FaultsSpec,
	} {
		specs = append(specs, b(ev))
	}
	return Merge("evaluation", specs...).Cells
}

// planKeys plans cells and returns each unit's cell keys.
func planKeys(cells []Cell) [][]string {
	rs := &ResultSet{results: map[string]*CellResult{}}
	var got [][]string
	for _, u := range planUnits(cells, rs) {
		var keys []string
		for _, c := range u.cells {
			keys = append(keys, c.Key)
		}
		got = append(got, keys)
	}
	return got
}

// TestPlanUnitsMatchesDeepEqualGrouping: on the merged evaluation,
// planUnits' comparable group key forms exactly the units that grouping
// by reflect.DeepEqual of stream keys and seed lists forms — the test
// sim.RunGroup applies to its members. A host and its riders form a unit
// of their own (TestPlanUnitsSeatsRiders); the reference groups the
// other cells, so every unit without riders is planned as before riders.
func TestPlanUnitsMatchesDeepEqualGrouping(t *testing.T) {
	cells := evaluationCells()
	byKey := map[string]Cell{}
	for _, c := range cells {
		byKey[c.Key] = c
	}
	inRiderUnit := map[string]bool{}
	for _, keys := range planKeys(cells) {
		if len(keys) > 1 && rideOf(byKey[keys[0]], byKey[keys[1]]) != sim.Live {
			for _, k := range keys {
				inRiderUnit[k] = true
			}
		}
	}

	// Reference: each sweep cell joins the latest unit whose first cell
	// has a DeepEqual stream key and seed list, until it is full.
	var want [][]string
	latest := map[int]int{} // first cell index → its latest unit
	for i, c := range cells {
		if inRiderUnit[c.Key] {
			continue
		}
		if !c.IsSweep() {
			want = append(want, []string{c.Key})
			continue
		}
		first := -1
		for j := range latest {
			o := cells[j]
			if reflect.DeepEqual(o.Config.StreamKey(), c.Config.StreamKey()) && reflect.DeepEqual(o.Seeds, c.Seeds) {
				first = j
			}
		}
		if first >= 0 && len(want[latest[first]]) < sim.GroupCap {
			want[latest[first]] = append(want[latest[first]], c.Key)
			continue
		}
		if first < 0 {
			first = i
		}
		latest[first] = len(want)
		want = append(want, []string{c.Key})
	}

	var got [][]string
	for _, keys := range planKeys(cells) {
		if !inRiderUnit[keys[0]] {
			got = append(got, keys)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planUnits formed %d units without riders, DeepEqual grouping %d; first difference at %v",
			len(got), len(want), firstDiff(got, want))
	}
	if len(got) >= len(cells)-len(inRiderUnit) {
		t.Fatalf("no sweep cells were grouped: %d units for %d cells", len(got), len(cells)-len(inRiderUnit))
	}
}

// TestPlanUnitsSeatsRiders: on the merged evaluation, every sweep cell
// that can ride an earlier cell of its group (sim.RideOf, equal stream
// key and seed list) lands in a unit led by a host it rides; a unit with
// riders holds nothing but its host and riders; and no unit holds more
// than sim.GroupCap state holders — certified riders hold none.
func TestPlanUnitsSeatsRiders(t *testing.T) {
	cells := evaluationCells()
	byKey := map[string]Cell{}
	for _, c := range cells {
		byKey[c.Key] = c
	}
	unitOf := map[string][]string{}
	for _, keys := range planKeys(cells) {
		for _, k := range keys {
			unitOf[k] = keys
		}
		holders, riders := 0, 0
		for _, k := range keys {
			r := rideOf(byKey[keys[0]], byKey[k])
			if r != sim.Certified {
				holders++
			}
			if r != sim.Live {
				riders++
			}
		}
		if riders > 0 && riders != len(keys)-1 {
			t.Errorf("unit %v holds cells that do not ride its host", keys)
		}
		if holders > sim.GroupCap {
			t.Errorf("unit %v holds %d state holders, more than GroupCap %d", keys, holders, sim.GroupCap)
		}
	}
	counts := map[sim.Ride]int{}
	for i, c := range cells {
		if !c.IsSweep() {
			continue
		}
		for _, h := range cells[:i] {
			if !h.IsSweep() || !reflect.DeepEqual(h.Config.StreamKey(), c.Config.StreamKey()) || !reflect.DeepEqual(h.Seeds, c.Seeds) {
				continue
			}
			if r := rideOf(h, c); r != sim.Live {
				counts[r]++
				u := unitOf[c.Key]
				if u[0] == c.Key || rideOf(byKey[u[0]], c) != r {
					t.Errorf("rider %s (%v) is not in a unit led by a host it rides: %v", c.Key, r, u)
				}
				break
			}
		}
	}
	// 4 policy variants x 3 device-side variants, 5 fault techniques x 3
	// weak-cells rates; 5 techniques x {drop, delay} x 3 rates.
	if counts[sim.Mirror] != 27 || counts[sim.Certified] != 30 {
		t.Fatalf("evaluation has %d mirror and %d certified rider cells, want 27 and 30", counts[sim.Mirror], counts[sim.Certified])
	}
}

// rideOf is sim.RideOf for two sweep cells.
func rideOf(host, c Cell) sim.Ride {
	h, m := host.member(), c.member()
	return sim.RideOf(&h, &m)
}

func firstDiff(a, b [][]string) any {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return []any{i, a[i], b[i]}
		}
	}
	return min(len(a), len(b))
}
