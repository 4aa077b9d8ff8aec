package memctrl

import (
	"fmt"
	"testing"

	"tivapromi/internal/core"
	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/mitigation/cra"
	"tivapromi/internal/mitigation/para"
)

// TestBankMajorMatchesLinearScan is the bank-major queue's license: on
// every geometry, queue size, mitigation and stream, the Scheduler leaves
// the clock, every SchedStats counter (FAWStalls included), the device
// counters and the queue length exactly where the linear-scan reference
// leaves them — through RunIntervals, a Drain that misses its deadline, a
// full Drain, and RunIntervals again. Counters alone cannot tell two
// served orders apart (swapping two ready hits keeps every total), so a
// last phase ticks both cycle by cycle and compares the queued requests
// after every cycle.
func TestBankMajorMatchesLinearScan(t *testing.T) {
	grouped := testParams()
	grouped.Banks = 8
	grouped.RefInt = 4 // short windows: OnNewWindow fires mid-run
	geometries := []struct {
		name string
		p    dram.Params
	}{
		{"2bank", testParams()},
		{"scaled", dram.ScaledParams()},
		{"8bank-grouped", grouped},
		{"32bank", dram.FullDIMMParams()},
	}
	mitigations := []struct {
		name string
		mk   func(dram.Params) mitigation.Mitigator
	}{
		{"none", func(dram.Params) mitigation.Mitigator { return nil }},
		{"CRA", func(p dram.Params) mitigation.Mitigator { return cra.New(p.TotalBanks(), p.RowsPerBank, 50) }},
		{"PARA", func(dram.Params) mitigation.Mitigator { return para.New(1, 6, 7) }},
		{"LoLiPRoMi", func(p dram.Params) mitigation.Mitigator {
			m, err := core.New(core.LoLiPRoMi, p.TotalBanks(), core.DefaultConfig(p.RowsPerBank, p.RefInt), 7)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
	streams := []struct {
		name string
		mk   func(dram.Params, uint64) func() (int, int)
	}{{"spec", specStream}, {"act-heavy", actHeavyStream}}

	for _, g := range geometries {
		for _, m := range mitigations {
			for _, qcap := range []int{1, 4, 16, 32} {
				for _, st := range streams {
					name := fmt.Sprintf("%s/%s/q%d/%s", g.name, m.name, qcap, st.name)
					t.Run(name, func(t *testing.T) {
						got, ref := newDiffPair(t, g.p, m.mk, qcap)
						gotNext, refNext := st.mk(g.p, 11), st.mk(g.p, 11)

						got.RunIntervals(6, gotNext)
						ref.RunIntervals(6, refNext)
						sameAsRef(t, "RunIntervals", got, ref)

						// Too short a deadline: both give up at the same cycle.
						errGot, errRef := got.Drain(40), ref.Drain(40)
						if errGot == nil || errRef == nil {
							t.Fatalf("short Drain: bank-major err %v, reference err %v, want both to miss the deadline", errGot, errRef)
						}
						sameAsRef(t, "Drain at deadline", got, ref)

						if err := got.Drain(1 << 22); err != nil {
							t.Fatal(err)
						}
						if err := ref.Drain(1 << 22); err != nil {
							t.Fatal(err)
						}
						sameAsRef(t, "Drain", got, ref)

						got.RunIntervals(3, gotNext)
						ref.RunIntervals(3, refNext)
						sameAsRef(t, "RunIntervals after Drain", got, ref)

						lockstep(t, got, ref, gotNext, refNext, 2*int64(DDR42400().TREF))
						sameAsRef(t, "lockstep", got, ref)

						if st.name == "act-heavy" && qcap >= 16 && (g.name == "8bank-grouped" || g.name == "32bank") && got.Stats().FAWStalls == 0 {
							t.Fatal("ACT-heavy stream never hit the four-ACT window")
						}
					})
				}
			}
		}
	}
}

func newDiffPair(t *testing.T, p dram.Params, mk func(dram.Params) mitigation.Mitigator, qcap int) (*Scheduler, *refScheduler) {
	t.Helper()
	devGot, err := dram.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewScheduler(DDR42400(), devGot, mk(p), qcap)
	if err != nil {
		t.Fatal(err)
	}
	devRef, err := dram.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefScheduler(DDR42400(), devRef, mk(p), qcap)
	if err != nil {
		t.Fatal(err)
	}
	return got, ref
}

func sameAsRef(t *testing.T, phase string, got *Scheduler, ref *refScheduler) {
	t.Helper()
	if got.Cycle() != ref.Cycle() || got.Stats() != ref.Stats() || got.QueueLen() != ref.QueueLen() {
		t.Fatalf("%s: bank-major cycle %d %+v (queue %d), linear scan cycle %d %+v (queue %d)",
			phase, got.Cycle(), got.Stats(), got.QueueLen(), ref.Cycle(), ref.Stats(), ref.QueueLen())
	}
	if got.dev.Stats() != ref.dev.Stats() {
		t.Fatalf("%s: device stats diverge:\n bank-major  %+v\n linear scan %+v", phase, got.dev.Stats(), ref.dev.Stats())
	}
}

// lockstep keeps both queues full from their streams and ticks both for
// n cycles, requiring after every cycle that each bank holds the same
// requests (row and arrival cycle) in the same order: both schedulers
// must serve, activate and precharge for the same request each cycle.
func lockstep(t *testing.T, got *Scheduler, ref *refScheduler, gotNext, refNext func() (int, int), n int64) {
	t.Helper()
	at := make([]int, len(got.banks))
	for end := got.Cycle() + n; got.Cycle() < end; {
		for got.QueueLen() < got.queueCap {
			got.Enqueue(gotNext())
		}
		for ref.QueueLen() < ref.queueCap {
			ref.Enqueue(refNext())
		}
		got.Tick()
		ref.Tick()
		clear(at)
		for _, r := range ref.queue {
			q := got.banks[r.Bank].q
			if k := at[r.Bank]; k >= len(q) || q[k].row != int32(r.Row) || q[k].arrived != r.arrived {
				t.Fatalf("cycle %d: bank %d queue diverged at position %d from the linear scan's (row %d, arrived %d)",
					got.Cycle(), r.Bank, k, r.Row, r.arrived)
			}
			at[r.Bank]++
		}
		if got.QueueLen() != ref.QueueLen() {
			t.Fatalf("cycle %d: queue length %d, linear scan %d", got.Cycle(), got.QueueLen(), ref.QueueLen())
		}
	}
}
