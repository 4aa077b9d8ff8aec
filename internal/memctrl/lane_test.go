package memctrl

import (
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

func laneParams() dram.Params {
	p := testParams()
	p.Banks = 1
	return p
}

func newLane(t *testing.T, mit mitigation.Mitigator) *Lane {
	t.Helper()
	dev, err := dram.New(laneParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLane(DefaultConfig(), dev, mit)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAccessesPerIntervalDerivation(t *testing.T) {
	// Paper DDR4 timing: (7800-350)/45 = 165, exactly the tREFI/tRC
	// ceiling the device enforces per bank. The scaled parameters share
	// the timing, so the count is scale-free.
	if got := AccessesPerInterval(dram.PaperParams()); got != 165 {
		t.Fatalf("paper AccessesPerInterval = %d, want 165", got)
	}
	if got, max := AccessesPerInterval(dram.ScaledParams()), dram.ScaledParams().MaxActsPerRI; got != max {
		t.Fatalf("scaled AccessesPerInterval = %d, want MaxActsPerRI %d", got, max)
	}
	// Degenerate timing still yields a positive count.
	p := dram.PaperParams()
	p.TRefIntNs = p.TRFCNs
	if got := AccessesPerInterval(p); got != 1 {
		t.Fatalf("degenerate AccessesPerInterval = %d, want 1", got)
	}
}

func TestLaneRejectsMultiBankDevice(t *testing.T) {
	dev, err := dram.New(testParams(), nil) // 2 banks
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLane(DefaultConfig(), dev, nil); err == nil {
		t.Fatal("lane accepted a multi-bank device")
	}
}

func TestLaneRowBufferTracking(t *testing.T) {
	l := newLane(t, nil)
	l.Access(5)
	l.Access(5) // hit
	l.Access(6)
	s := l.Stats()
	if s.Accesses != 3 || s.RowHits != 1 || s.RowMisses != 2 {
		t.Fatalf("stats = %+v, want 3 accesses, 1 hit, 2 misses", s)
	}
	if acts := l.Device().Stats().Activates; acts != 2 {
		t.Fatalf("device saw %d activations, want 2", acts)
	}
}

func TestLaneClosedPageActivatesEveryAccess(t *testing.T) {
	dev, err := dram.New(laneParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ClosedPage = true
	l, err := NewLane(cfg, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l.Access(9)
	}
	if s := l.Stats(); s.RowHits != 0 || s.RowMisses != 4 {
		t.Fatalf("closed-page stats = %+v, want 0 hits, 4 misses", s)
	}
}

func TestLaneCatchUpFiresBoundariesLazily(t *testing.T) {
	r := &recorder{}
	l := newLane(t, r)
	l.Access(1)
	if r.refs != 0 {
		t.Fatalf("boundary fired without CatchUp: %d", r.refs)
	}
	l.CatchUp(3)
	if r.refs != 3 || l.IntervalsFired() != 3 {
		t.Fatalf("refs = %d, fired = %d, want 3", r.refs, l.IntervalsFired())
	}
	if iv := l.Device().Interval(); iv != 3 {
		t.Fatalf("device interval = %d, want 3", iv)
	}
	// CatchUp is idempotent at the same target.
	l.CatchUp(3)
	if r.refs != 3 {
		t.Fatalf("repeated CatchUp refired: %d", r.refs)
	}
}

func TestLaneRefreshClosesRow(t *testing.T) {
	l := newLane(t, nil)
	l.Access(7)
	l.CatchUp(1)
	l.Access(7) // row was precharged by the refresh: a miss again
	if s := l.Stats(); s.RowMisses != 2 || s.RowHits != 0 {
		t.Fatalf("stats = %+v, want 2 misses after refresh closed the row", s)
	}
}

func TestLaneNewWindowAfterFullWindow(t *testing.T) {
	r := &recorder{}
	l := newLane(t, r)
	refInt := laneParams().RefInt
	l.CatchUp(refInt)
	if r.windows != 1 {
		t.Fatalf("windows = %d after %d boundaries, want 1", r.windows, refInt)
	}
}

func TestLaneOverflowStalls(t *testing.T) {
	f := &flooder{n: DefaultConfig().PendingCap + 3}
	l := newLane(t, f)
	l.Access(10)
	s := l.Stats()
	if s.Overflows != 3 {
		t.Fatalf("overflows = %d, want 3", s.Overflows)
	}
	// Every command executed despite the overflow stall.
	if s.ActN != uint64(f.n) {
		t.Fatalf("ActN = %d, want %d", s.ActN, f.n)
	}
}

func TestLaneCommandFilter(t *testing.T) {
	f := &flooder{n: 1}
	l := newLane(t, f)
	mode := Drop
	l.SetCommandFilter(func(mitigation.Command) Disposition { return mode })
	l.Access(10)
	if s := l.Stats(); s.DroppedCmds != 1 || s.ActN != 0 {
		t.Fatalf("after drop: %+v", l.Stats())
	}
	mode = Delay
	l.Access(11)
	if s := l.Stats(); s.DelayedCmds != 1 || s.ActN != 0 {
		t.Fatalf("after delay: %+v", l.Stats())
	}
	// The delayed command executes at the next boundary, unfiltered.
	l.CatchUp(1)
	if s := l.Stats(); s.ActN != 1 {
		t.Fatalf("delayed command never executed: %+v", s)
	}
}

func TestLaneAccessTick(t *testing.T) {
	l := newLane(t, nil)
	ticks := 0
	l.SetAccessTick(func() { ticks++ })
	for i := 0; i < 5; i++ {
		l.Access(int32(i))
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

// TestLaneAccessTickOnRowHits: the inlined row-hit path never skips an
// installed tick, also one installed while a row is open, and serves
// hits again once the tick is removed.
func TestLaneAccessTickOnRowHits(t *testing.T) {
	l := newLane(t, nil)
	l.Access(7) // opens row 7
	ticks := 0
	l.SetAccessTick(func() { ticks++ })
	l.Access(7)
	l.Access(7)
	if ticks != 2 {
		t.Fatalf("ticks on row hits = %d, want 2", ticks)
	}
	l.SetAccessTick(nil)
	l.Access(7)
	if s := l.Stats(); ticks != 2 || s.Accesses != 4 || s.RowHits != 3 || s.RowMisses != 1 {
		t.Fatalf("after removing the tick: ticks %d, stats %+v; want 2 ticks, 4 accesses, 3 hits, 1 miss", ticks, s)
	}
}

func TestLaneCommandHookSeesCommands(t *testing.T) {
	f := &flooder{n: 2}
	l := newLane(t, f)
	var seen []mitigation.Command
	l.SetCommandHook(func(c mitigation.Command) { seen = append(seen, c) })
	l.Access(10)
	if len(seen) != 2 {
		t.Fatalf("hook saw %d commands, want 2", len(seen))
	}
}

// TestLaneMirrorSeesWhatTheDeviceSees: a mirror device receives every
// activation, mitigation command and interval advance of the lane's own
// device, so two devices of equal configuration end in equal state; a
// mirror of another geometry is refused.
func TestLaneMirrorSeesWhatTheDeviceSees(t *testing.T) {
	l := newLane(t, &flooder{n: 1})
	mirror, err := dram.New(laneParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AddMirror(mirror); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		l.CatchUp(i / 40)
		l.Access(int32(i * 7 % 97))
	}
	l.CatchUp(80)
	own := l.Device()
	if own.Stats() != mirror.Stats() || own.Stats().NeighborActs == 0 || own.Interval() != mirror.Interval() {
		t.Fatalf("mirror stats %+v at interval %d, own %+v at %d", mirror.Stats(), mirror.Interval(), own.Stats(), own.Interval())
	}
	for r := 0; r < 97; r++ {
		if own.Disturbance(0, r) != mirror.Disturbance(0, r) {
			t.Fatalf("row %d: mirror disturbance %d, own %d", r, mirror.Disturbance(0, r), own.Disturbance(0, r))
		}
	}
	p := laneParams()
	p.RowsPerBank *= 2
	other, err := dram.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.AddMirror(other) == nil {
		t.Fatal("lane accepted a mirror of another geometry")
	}
}
