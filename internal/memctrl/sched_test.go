package memctrl

import (
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/mitigation/cra"
	"tivapromi/internal/workload"
)

func newSched(t *testing.T, mit mitigation.Mitigator) (*Scheduler, *dram.Device) {
	t.Helper()
	dev, err := dram.New(testParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(DDR42400(), dev, mit, 16)
	if err != nil {
		t.Fatal(err)
	}
	return s, dev
}

func TestTimingValidate(t *testing.T) {
	if err := DDR42400().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DDR42400()
	bad.TRC = bad.TRAS - 1
	if bad.Validate() == nil {
		t.Fatal("tRC < tRAS accepted")
	}
	bad = DDR42400()
	bad.TREF = bad.TRFC
	if bad.Validate() == nil {
		t.Fatal("tREFI <= tRFC accepted")
	}
	bad = DDR42400()
	bad.TRCD = 0
	if bad.Validate() == nil {
		t.Fatal("zero timing accepted")
	}
}

func TestSingleRequestTiming(t *testing.T) {
	s, dev := newSched(t, nil)
	s.Enqueue(0, 100)
	if err := s.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Served != 1 || st.RowMisses != 1 || st.RowHits() != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Cold request: ACT at cycle 1-ish, column at +tRCD. Latency ≈ tRCD+1.
	if st.LatencyMax < int64(DDR42400().TRCD) || st.LatencyMax > int64(DDR42400().TRCD)+4 {
		t.Fatalf("latency %d, want ≈tRCD (%d)", st.LatencyMax, DDR42400().TRCD)
	}
	if dev.Stats().Activates != 1 {
		t.Fatal("device missed the activation")
	}
}

func TestRowHitsAreCheaper(t *testing.T) {
	s, _ := newSched(t, nil)
	// Same row back to back: one ACT, three column commands.
	for i := 0; i < 3; i++ {
		s.Enqueue(0, 100)
	}
	if err := s.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RowMisses != 1 || st.RowHits() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.RowHits(), st.RowMisses)
	}
}

func TestRowConflictPrecharges(t *testing.T) {
	s, _ := newSched(t, nil)
	s.Enqueue(0, 100)
	s.Enqueue(0, 200)
	if err := s.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RowMisses != 2 {
		t.Fatalf("misses = %d, want 2 (conflict forced a PRE+ACT)", st.RowMisses)
	}
	// The second request had to wait out tRAS + tRP + tRCD at least.
	min := int64(DDR42400().TRAS + DDR42400().TRP + DDR42400().TRCD)
	if st.LatencyMax < min {
		t.Fatalf("conflict latency %d < structural minimum %d", st.LatencyMax, min)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	s, _ := newSched(t, nil)
	// Open row 100, then queue a conflicting request followed by a row
	// hit: the hit must be served first (FR-FCFS reordering).
	s.Enqueue(0, 100)
	if err := s.Drain(10_000); err != nil {
		t.Fatal(err)
	}
	s.Enqueue(0, 200) // conflict (older)
	s.Enqueue(0, 100) // row hit (younger)
	for s.QueueLen() == 2 {
		s.Tick()
	}
	// The first serve must have been the younger row hit, leaving the
	// conflicting request alone in bank 0's queue.
	if q := s.banks[0].q; s.QueueLen() != 1 || len(q) != 1 || q[0].row != 200 {
		t.Fatal("FR-FCFS did not reorder the row hit ahead of the conflict")
	}
	if err := s.Drain(100_000); err != nil {
		t.Fatal(err)
	}
}

func TestTFAWLimitsActivationBursts(t *testing.T) {
	s, _ := newSched(t, nil)
	// Five ACTs to five banks... testParams has 2 banks; alternate rows
	// in both banks to force many ACTs and verify the stall counter and
	// window pacing engage under an ACT-heavy pattern.
	for i := 0; i < 8; i++ {
		s.Enqueue(i%2, 100+100*i)
	}
	if err := s.Drain(100_000); err != nil {
		t.Fatal(err)
	}
	// With tRC 54 per bank and 2 banks, ACT pacing dominates; just
	// verify every request was served and the device agrees.
	if s.Stats().Served != 8 {
		t.Fatalf("served %d of 8", s.Stats().Served)
	}
}

func TestRefreshFiresOnSchedule(t *testing.T) {
	s, dev := newSched(t, nil)
	for dev.Interval() < 3 {
		if s.QueueLen() < 4 {
			s.Enqueue(0, 100)
		}
		s.Tick()
	}
	if s.Stats().Refreshes != 3 {
		t.Fatalf("refreshes = %d", s.Stats().Refreshes)
	}
	// Interval spacing equals tREFI.
	if got := s.Cycle(); got < 3*int64(DDR42400().TREF) || got > 3*int64(DDR42400().TREF)+int64(DDR42400().TRFC)+10 {
		t.Fatalf("3 refreshes at cycle %d, want ≈%d", got, 3*DDR42400().TREF)
	}
}

func TestMitigationPathThroughScheduler(t *testing.T) {
	mit := cra.New(2, 4096, 50)
	s, dev := newSched(t, mit)
	// Hammer two alternating rows; CRA triggers every 50 activations per
	// row and its act_n must execute via the maintenance path.
	for i := 0; i < 300; i++ {
		s.Enqueue(0, 100+100*(i&1))
		if err := s.Drain(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Stats().NeighborActs == 0 {
		t.Fatal("mitigation commands never executed through the scheduler")
	}
	// Maintenance leaves the bank precharged: next same-row access is a
	// miss, not a hit — verified indirectly by the device disturbance
	// being reset on the victims.
	if dev.Disturbance(0, 99) > 100 {
		t.Fatal("act_n did not restore the victim charge")
	}
}

func TestEnqueueBounds(t *testing.T) {
	s, _ := newSched(t, nil)
	for i := 0; i < 16; i++ {
		if !s.Enqueue(0, i) {
			t.Fatal("queue rejected below capacity")
		}
	}
	if s.Enqueue(0, 99) {
		t.Fatal("queue accepted beyond capacity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range request accepted")
		}
	}()
	s2, _ := newSched(t, nil)
	s2.Enqueue(0, 1<<30)
}

func TestSchedulerMatchesFastPathActivationStats(t *testing.T) {
	// The validation experiment: the same access streams through the
	// cycle-accurate scheduler and the service-time Controller must
	// produce activation statistics of the same order — the fast path's
	// license. The per-seed ratio scatters widely (the FR-FCFS scheduler
	// batches row hits and stretches intervals differently per stream, so
	// single seeds land anywhere in ≈0.6–1.0), so the validation pins the
	// mean over several seeds rather than one lucky draw.
	p := testParams()
	mkStream := func(seed uint64) func() (int, int) {
		gen := workload.SPECMix(p.Banks, p.RowsPerBank, seed)
		return func() (int, int) {
			a := gen.Next()
			return a.Bank, a.Row
		}
	}

	var sum float64
	const seeds = 6
	for seed := uint64(1); seed <= seeds; seed++ {
		devFast, _ := dram.New(p, nil)
		fast, err := New(DefaultConfig(), devFast, nil)
		if err != nil {
			t.Fatal(err)
		}
		next := mkStream(seed)
		fast.RunIntervals(64, func() (int, int, bool) {
			bank, row := next()
			return bank, row, false
		})

		devCyc, _ := dram.New(p, nil)
		cyc, err := NewScheduler(DDR42400(), devCyc, nil, 16)
		if err != nil {
			t.Fatal(err)
		}
		cyc.RunIntervals(64, mkStream(seed))

		fa := devFast.Stats().AvgActsPerInterval()
		ca := devCyc.Stats().AvgActsPerInterval()
		if fa == 0 || ca == 0 {
			t.Fatal("no activations")
		}
		sum += fa / ca
	}
	mean := sum / seeds
	if mean < 0.65 || mean > 1.35 {
		t.Fatalf("fast path vs cycle-accurate mean activation ratio %.2f over %d seeds, want [0.65, 1.35]", mean, seeds)
	}
}

func TestBankGroupSpacing(t *testing.T) {
	// ACTs within one bank group must be spaced by tRRD_L; across groups
	// the shorter tRRD_S applies. Measure the ACT issue gap for the two
	// cases directly. Banks 0 and 4 share a group (4 groups); banks 0
	// and 1 do not.
	gapFor := func(b2 int) int64 {
		p := testParams()
		p.Banks = 8
		dev, err := dram.New(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheduler(DDR42400(), dev, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		s.Enqueue(0, 100)
		s.Enqueue(b2, 100)
		var first, second int64
		for second == 0 {
			before := s.Stats().RowMisses
			s.Tick()
			if s.Stats().RowMisses > before {
				if first == 0 {
					first = s.Cycle()
				} else {
					second = s.Cycle()
				}
			}
		}
		if err := s.Drain(100_000); err != nil {
			t.Fatal(err)
		}
		return second - first
	}
	tm := DDR42400()
	sameGroup := gapFor(4) // 4 % 4 == 0 % 4
	crossGroup := gapFor(1)
	if sameGroup != int64(tm.TRRD) {
		t.Fatalf("same-group ACT gap %d, want tRRD_L %d", sameGroup, tm.TRRD)
	}
	if crossGroup != int64(tm.TRRDS) {
		t.Fatalf("cross-group ACT gap %d, want tRRD_S %d", crossGroup, tm.TRRDS)
	}
}
