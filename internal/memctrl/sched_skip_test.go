package memctrl

import (
	"errors"
	"fmt"
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/mitigation/cra"
	"tivapromi/internal/mitigation/para"
	"tivapromi/internal/rng"
	"tivapromi/internal/workload"
)

// errNotDrained is the reference loop's deadline error.
var errNotDrained = errors.New("not drained")

// tickRunIntervals is the tick-by-tick reference for RunIntervals: fill
// the queue, then advance exactly one cycle, every cycle.
func tickRunIntervals(s *Scheduler, n int, next func() (int, int, bool)) {
	target := s.dev.Interval() + n
	for s.dev.Interval() < target {
		for s.QueueLen() < s.queueCap {
			s.Enqueue(next())
		}
		s.Tick()
	}
	s.stats.Cycles = s.cycle
}

// tickDrain is the tick-by-tick reference for Drain.
func tickDrain(s *Scheduler, maxCycles int64) error {
	deadline := s.cycle + maxCycles
	for (len(s.queue) > 0 || len(s.pending) > 0) && s.cycle < deadline {
		s.Tick()
	}
	if len(s.queue) > 0 || len(s.pending) > 0 {
		return errNotDrained
	}
	s.stats.Cycles = s.cycle
	return nil
}

func specStream(p dram.Params, seed uint64) func() (int, int, bool) {
	gen := workload.SPECMix(p.TotalBanks(), p.RowsPerBank, seed)
	return func() (int, int, bool) {
		a := gen.Next()
		return a.Bank, a.Row, a.Write
	}
}

// actHeavyStream alternates each bank between distant random rows, so
// nearly every request needs its own PRE+ACT and the four-ACT window
// paces the bus.
func actHeavyStream(p dram.Params, seed uint64) func() (int, int, bool) {
	src := rng.NewXorShift64Star(seed)
	banks := uint64(p.TotalBanks())
	return func() (int, int, bool) {
		v := src.Uint64()
		return int(v % banks), int((v >> 16) % uint64(p.RowsPerBank)), v>>63 == 1
	}
}

// TestSkipMatchesTickByTick is the event-driven clock's license: RunIntervals
// and Drain, which jump over idle cycles, must leave every scheduler and
// device counter exactly where a loop of single-cycle Ticks leaves them.
func TestSkipMatchesTickByTick(t *testing.T) {
	scaled := dram.ScaledParams()
	grouped := testParams()
	grouped.Banks = 8
	grouped.RefInt = 4 // short windows: OnNewWindow fires mid-run
	geometries := []struct {
		name string
		p    dram.Params
	}{{"2bank", testParams()}, {"scaled", scaled}, {"8bank-grouped", grouped}}
	mitigations := []struct {
		name string
		mk   func(dram.Params) mitigation.Mitigator
	}{
		{"none", func(dram.Params) mitigation.Mitigator { return nil }},
		{"CRA", func(p dram.Params) mitigation.Mitigator { return cra.New(p.TotalBanks(), p.RowsPerBank, 50) }},
		{"PARA", func(dram.Params) mitigation.Mitigator { return para.New(1, 6, 7) }},
	}
	streams := []struct {
		name string
		mk   func(dram.Params, uint64) func() (int, int, bool)
	}{{"spec", specStream}, {"act-heavy", actHeavyStream}}

	for _, g := range geometries {
		for _, m := range mitigations {
			for _, qcap := range []int{4, 16, 32} {
				for _, st := range streams {
					name := fmt.Sprintf("%s/%s/q%d/%s", g.name, m.name, qcap, st.name)
					t.Run(name, func(t *testing.T) {
						skip, ref := newPair(t, g.p, m.mk, qcap)
						skipNext, refNext := st.mk(g.p, 11), st.mk(g.p, 11)

						skip.RunIntervals(6, skipNext)
						tickRunIntervals(ref, 6, refNext)
						sameState(t, "RunIntervals", skip, ref)

						// Too short a deadline: both give up at the same cycle.
						errSkip, errRef := skip.Drain(40), tickDrain(ref, 40)
						if errSkip == nil || errRef == nil {
							t.Fatalf("short Drain: skip err %v, tick err %v, want both to miss the deadline", errSkip, errRef)
						}
						sameState(t, "Drain at deadline", skip, ref)

						if err := skip.Drain(1 << 22); err != nil {
							t.Fatal(err)
						}
						if err := tickDrain(ref, 1<<22); err != nil {
							t.Fatal(err)
						}
						sameState(t, "Drain", skip, ref)

						skip.RunIntervals(3, skipNext)
						tickRunIntervals(ref, 3, refNext)
						sameState(t, "RunIntervals after Drain", skip, ref)

						if st.name == "act-heavy" && g.name == "8bank-grouped" && skip.Stats().FAWStalls == 0 {
							t.Fatal("ACT-heavy 8-bank stream never hit the four-ACT window")
						}
					})
				}
			}
		}
	}
}

func newPair(t *testing.T, p dram.Params, mk func(dram.Params) mitigation.Mitigator, qcap int) (*Scheduler, *Scheduler) {
	t.Helper()
	pair := [2]*Scheduler{}
	for i := range pair {
		dev, err := dram.New(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pair[i], err = NewScheduler(DDR42400(), dev, mk(p), qcap); err != nil {
			t.Fatal(err)
		}
	}
	return pair[0], pair[1]
}

func sameState(t *testing.T, phase string, skip, ref *Scheduler) {
	t.Helper()
	if skip.Cycle() != ref.Cycle() || skip.Stats() != ref.Stats() || skip.QueueLen() != ref.QueueLen() {
		t.Fatalf("%s: event-driven cycle %d %+v (queue %d), tick-by-tick cycle %d %+v (queue %d)",
			phase, skip.Cycle(), skip.Stats(), skip.QueueLen(), ref.Cycle(), ref.Stats(), ref.QueueLen())
	}
	if skip.dev.Stats() != ref.dev.Stats() {
		t.Fatalf("%s: device stats diverge:\n event-driven %+v\n tick-by-tick %+v", phase, skip.dev.Stats(), ref.dev.Stats())
	}
}

// TestRunIntervalsAllocsFlat pins the scheduler's steady state as
// allocation-free: running 256 refresh intervals allocates no more than
// running 8 (the fixed construction cost aside).
func TestRunIntervalsAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			p := dram.ScaledParams()
			dev, err := dram.New(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewScheduler(DDR42400(), dev, nil, 32)
			if err != nil {
				t.Fatal(err)
			}
			s.RunIntervals(n, specStream(p, 1))
		})
	}
	short, long := allocs(8), allocs(256)
	t.Logf("allocs: %.0f at 8 intervals, %.0f at 256", short, long)
	if long > short+4 {
		t.Fatalf("RunIntervals allocates %.0f objects over 256 intervals vs %.0f over 8: per-interval allocation", long, short)
	}
}
