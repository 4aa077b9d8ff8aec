package memctrl

import (
	"fmt"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// This file implements the cycle-accurate controller: an FR-FCFS
// scheduler over per-bank state machines with the JEDEC DDR4 core
// timings (tRCD, tRP, CL, tRAS, tRC, tRRD, tFAW) and all-bank refresh.
// The service-time Controller (memctrl.go) is the simulator's fast path;
// the Scheduler exists to validate that the fast path's activation
// statistics are faithful (see the package tests and EXPERIMENTS.md) and
// to study request latency, which service times cannot express.
//
// Tick advances the clock exactly one cycle. RunIntervals and Drain are
// event-driven: before each Tick they jump the clock over the cycles in
// which no command can issue (every bank waiting on a timer), so their
// results equal a tick-by-tick loop's while costing one Tick per command.

// Timing holds the DDR4 core timings in controller clock cycles.
type Timing struct {
	TRCD int // ACT to column command
	TRP  int // PRE to ACT
	CL   int // column command to data
	TRAS int // ACT to PRE
	TRC  int // ACT to ACT, same bank
	TRRD int // ACT to ACT, same bank group (tRRD_L)
	// TRRDS is ACT to ACT across bank groups (tRRD_S); 0 falls back to
	// TRRD (a device without bank groups).
	TRRDS int
	// BankGroups is the DDR4 bank-group count; 0 or 1 disables grouping.
	BankGroups int
	TFAW       int // rolling four-ACT window
	TREF       int // refresh interval (tREFI)
	TRFC       int // refresh cycle time
}

// DDR42400 returns DDR4-2400-flavored timings at the paper's 1.2 GHz
// controller clock (Table I: tRC 45 ns = 54 cycles, tREFI 7.8 µs,
// tRFC 350 ns).
func DDR42400() Timing {
	return Timing{
		TRCD:       17,
		TRP:        17,
		CL:         17,
		TRAS:       39,
		TRC:        54,
		TRRD:       6,
		TRRDS:      4,
		BankGroups: 4,
		TFAW:       26,
		TREF:       9360,
		TRFC:       420,
	}
}

// Validate reports inconsistent timings.
func (t Timing) Validate() error {
	switch {
	case t.TRCD <= 0 || t.TRP <= 0 || t.CL <= 0 || t.TRAS <= 0 || t.TRC <= 0:
		return fmt.Errorf("memctrl: non-positive core timing in %+v", t)
	case t.TRC < t.TRAS:
		return fmt.Errorf("memctrl: tRC (%d) < tRAS (%d)", t.TRC, t.TRAS)
	case t.TREF <= t.TRFC:
		return fmt.Errorf("memctrl: tREFI (%d) must exceed tRFC (%d)", t.TREF, t.TRFC)
	}
	return nil
}

// Request is one memory request for the scheduler.
type Request struct {
	Bank  int
	Row   int
	Write bool

	arrived int64
}

// SchedStats aggregates scheduler activity.
type SchedStats struct {
	Cycles    int64
	Served    uint64
	RowMisses uint64 // ACT commands issued
	Refreshes uint64
	// Latency accounting in cycles (arrival to column command issue).
	LatencyTotal int64
	LatencyMax   int64
	// FAWStalls counts cycles an ACT was ready but the four-activation
	// window blocked it.
	FAWStalls uint64
}

// AvgLatency returns the mean request latency in cycles.
func (s SchedStats) AvgLatency() float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.LatencyTotal) / float64(s.Served)
}

// RowHits returns the served requests that did not need their own ACT
// (each ACT serves exactly one opener).
func (s SchedStats) RowHits() uint64 {
	if s.Served <= s.RowMisses {
		return 0
	}
	return s.Served - s.RowMisses
}

// bankState is one bank's state machine.
type bankState struct {
	openRow   int32 // -1 when precharged
	reqs      int32 // queued requests for this bank
	hits      int32 // queued requests for the open row (0 when precharged)
	actReady  int64 // earliest cycle an ACT may issue (tRP/tRC)
	colReady  int64 // earliest cycle a column command may issue (tRCD)
	preReady  int64 // earliest cycle a PRE may issue (tRAS)
	busyUntil int64 // data/maintenance occupancy
}

// Scheduler is a cycle-accurate FR-FCFS DDR4 controller front.
// Not safe for concurrent use.
type Scheduler struct {
	timing Timing
	dev    *dram.Device
	mit    mitigation.Mitigator

	banks    []bankState
	queue    []Request
	queueCap int

	cycle   int64
	nextRef int64
	// acts holds the last four ACT issue cycles for the tFAW window, a
	// ring whose slot actHead is the oldest (the fourth-latest ACT).
	acts        [4]int64
	actHead     int
	lastAct     int64 // for tRRD
	lastActBank int   // bank of the last ACT, for bank-group spacing

	pending []mitigation.Command
	scratch []mitigation.Command
	stats   SchedStats
}

// NewScheduler builds a cycle-accurate controller over dev with the given
// mitigation (nil for none) and a bounded request queue.
func NewScheduler(t Timing, dev *dram.Device, mit mitigation.Mitigator, queueCap int) (*Scheduler, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if queueCap <= 0 {
		return nil, fmt.Errorf("memctrl: queue capacity %d", queueCap)
	}
	s := &Scheduler{
		timing:   t,
		dev:      dev,
		mit:      mit,
		banks:    make([]bankState, dev.Params().TotalBanks()),
		queueCap: queueCap,
		nextRef:  int64(t.TREF),
		acts:     [4]int64{-1 << 40, -1 << 40, -1 << 40, -1 << 40},
		lastAct:  -1 << 40,
	}
	s.lastActBank = -1
	for b := range s.banks {
		s.banks[b].openRow = -1
	}
	return s, nil
}

// Stats returns the scheduler counters.
func (s *Scheduler) Stats() SchedStats { return s.stats }

// Cycle returns the controller clock.
func (s *Scheduler) Cycle() int64 { return s.cycle }

// QueueLen returns the number of queued requests.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Enqueue adds a request; it reports false when the queue is full (the
// front-end must stall).
func (s *Scheduler) Enqueue(bank, row int, write bool) bool {
	if len(s.queue) >= s.queueCap {
		return false
	}
	if bank < 0 || bank >= len(s.banks) || row < 0 || row >= s.dev.Params().RowsPerBank {
		panic(fmt.Sprintf("memctrl: request out of range: bank %d row %d", bank, row))
	}
	s.queue = append(s.queue, Request{Bank: bank, Row: row, Write: write, arrived: s.cycle})
	b := &s.banks[bank]
	b.reqs++
	if b.openRow == int32(row) {
		b.hits++
	}
	return true
}

// Tick advances the controller one cycle, issuing at most one command
// (the single command bus of a DDR4 channel).
func (s *Scheduler) Tick() {
	s.cycle++
	// Refresh has absolute priority once due: wait for all banks to be
	// precharge-able, then refresh.
	if s.cycle >= s.nextRef {
		s.issueRefresh()
		return
	}
	// Drain buffered mitigation commands when a bank is free (the Fig. 1
	// interrupt logic sharing the command bus).
	if s.issueMaintenance() {
		return
	}
	// FR-FCFS: first ready column command (open row) in queue order...
	for i := range s.queue {
		r := &s.queue[i]
		b := &s.banks[r.Bank]
		if b.openRow == int32(r.Row) && s.cycle >= b.colReady && s.cycle >= b.busyUntil {
			s.serve(i)
			return
		}
	}
	// ...then the oldest request: ACT if precharged, else PRE the
	// conflicting row.
	for i := range s.queue {
		r := &s.queue[i]
		b := &s.banks[r.Bank]
		if b.openRow == int32(r.Row) {
			continue // waiting on tRCD; a younger row hit may fire next cycle
		}
		if b.openRow == -1 {
			if s.cycle >= b.actReady && s.cycle >= s.earliestACT(r.Bank) {
				s.issueACT(r.Bank, r.Row)
				return
			}
			if s.cycle >= b.actReady {
				s.stats.FAWStalls++
			}
			continue
		}
		if s.cycle >= b.preReady && s.cycle >= b.busyUntil {
			s.issuePRE(r.Bank)
			return
		}
	}
}

// earliestACT is the first cycle the command bus admits an ACT to bank:
// tRRD_L after the last ACT within its bank group (tRRD_S across groups)
// and tFAW after the fourth-latest ACT.
func (s *Scheduler) earliestACT(bank int) int64 {
	gap := int64(s.timing.TRRD)
	if s.timing.BankGroups > 1 && s.timing.TRRDS > 0 && s.lastActBank >= 0 {
		if bank%s.timing.BankGroups != s.lastActBank%s.timing.BankGroups {
			gap = int64(s.timing.TRRDS)
		}
	}
	return max(s.lastAct+gap, s.acts[s.actHead]+int64(s.timing.TFAW))
}

// issueACT opens a row, feeding the device and the mitigation.
func (s *Scheduler) issueACT(bank, row int) {
	b := &s.banks[bank]
	b.openRow = int32(row)
	b.colReady = s.cycle + int64(s.timing.TRCD)
	b.preReady = s.cycle + int64(s.timing.TRAS)
	b.actReady = s.cycle + int64(s.timing.TRC)
	s.lastAct = s.cycle
	s.lastActBank = bank
	s.acts[s.actHead] = s.cycle
	s.actHead = (s.actHead + 1) % len(s.acts)
	b.hits = 0
	for i := range s.queue {
		if s.queue[i].Bank == bank && s.queue[i].Row == row {
			b.hits++
		}
	}
	s.stats.RowMisses++
	s.dev.Activate(bank, row)
	if s.mit != nil {
		s.scratch = s.mit.OnActivate(bank, row, s.dev.IntervalInWindow(), s.scratch[:0])
		s.pending = append(s.pending, s.scratch...)
	}
}

// issuePRE closes a bank's row.
func (s *Scheduler) issuePRE(bank int) {
	b := &s.banks[bank]
	b.openRow = -1
	b.hits = 0
	b.actReady = max(b.actReady, s.cycle+int64(s.timing.TRP))
}

// serve issues the column command for queue entry i and retires it.
func (s *Scheduler) serve(i int) {
	r := s.queue[i]
	b := &s.banks[r.Bank]
	b.busyUntil = s.cycle + int64(s.timing.CL)
	b.reqs--
	b.hits--
	s.stats.Served++
	lat := s.cycle - r.arrived
	s.stats.LatencyTotal += lat
	if lat > s.stats.LatencyMax {
		s.stats.LatencyMax = lat
	}
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
}

// issueMaintenance executes one buffered mitigation command if its bank
// is idle. Maintenance occupies the bank for a full tRC and leaves it
// precharged.
func (s *Scheduler) issueMaintenance() bool {
	for i, cmd := range s.pending {
		b := &s.banks[cmd.Bank]
		if s.cycle < b.actReady || s.cycle < b.busyUntil {
			continue
		}
		switch cmd.Kind {
		case mitigation.ActN:
			s.dev.ActivateNeighbors(cmd.Bank, cmd.Row)
		case mitigation.ActNOne:
			s.dev.ActivateNeighbor(cmd.Bank, cmd.Row, int(cmd.Side))
		case mitigation.RefreshRow:
			s.dev.RefreshRow(cmd.Bank, cmd.Row)
		}
		b.openRow = -1
		b.hits = 0
		b.actReady = s.cycle + int64(s.timing.TRC)
		b.busyUntil = s.cycle + int64(s.timing.TRC)
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		return true
	}
	return false
}

// issueRefresh performs the all-bank auto-refresh protocol: the
// mitigation observes ref, its commands join the buffer, the device
// refreshes, and every bank is busy for tRFC.
func (s *Scheduler) issueRefresh() {
	if s.mit != nil {
		s.scratch = s.mit.OnRefreshInterval(s.dev.IntervalInWindow(), s.scratch[:0])
		s.pending = append(s.pending, s.scratch...)
	}
	s.dev.AdvanceInterval()
	s.stats.Refreshes++
	after := s.cycle + int64(s.timing.TRFC)
	for i := range s.banks {
		b := &s.banks[i]
		b.openRow = -1
		b.hits = 0
		b.actReady = max(b.actReady, after)
		b.busyUntil = max(b.busyUntil, after)
	}
	s.nextRef += int64(s.timing.TREF)
	if s.mit != nil && s.dev.IntervalInWindow() == 0 {
		s.mit.OnNewWindow()
	}
}

// Drain runs the clock, skipping idle cycles, until the queue and
// maintenance buffer are empty (bounded by a deadline to catch livelocks).
func (s *Scheduler) Drain(maxCycles int64) error {
	deadline := s.cycle + maxCycles
	for (len(s.queue) > 0 || len(s.pending) > 0) && s.cycle < deadline {
		s.skipIdle(deadline)
		s.Tick()
	}
	if len(s.queue) > 0 || len(s.pending) > 0 {
		return fmt.Errorf("memctrl: scheduler did not drain within %d cycles", maxCycles)
	}
	s.stats.Cycles = s.cycle
	return nil
}

// RunIntervals feeds requests from next() whenever the queue has room and
// runs the clock, skipping idle cycles, until n refresh intervals have
// elapsed.
func (s *Scheduler) RunIntervals(n int, next func() (bank, row int, write bool)) {
	target := s.dev.Interval() + n
	for s.dev.Interval() < target {
		for len(s.queue) < s.queueCap {
			bank, row, write := next()
			s.Enqueue(bank, row, write)
		}
		s.skipIdle(s.nextRef)
		s.Tick()
	}
	s.stats.Cycles = s.cycle
}

// nextIssue returns the earliest cycle at which Tick can issue a command
// given the current state: the refresh deadline, a buffered maintenance
// command's bank going idle, a row hit's column command, or a non-hit's
// ACT (bus spacing included) or PRE. Every cycle before it is idle, and
// idle cycles change nothing but the clock and FAWStalls.
func (s *Scheduler) nextIssue() int64 {
	next := s.nextRef
	for _, cmd := range s.pending {
		b := &s.banks[cmd.Bank]
		next = min(next, max(b.actReady, b.busyUntil))
	}
	for i := range s.banks {
		b := &s.banks[i]
		if b.hits > 0 {
			next = min(next, max(b.colReady, b.busyUntil))
		}
		if b.reqs > b.hits {
			if b.openRow == -1 {
				next = min(next, max(b.actReady, s.earliestACT(i)))
			} else {
				next = min(next, max(b.preReady, b.busyUntil))
			}
		}
	}
	return next
}

// skipIdle jumps the clock to one cycle before the next command issue (or
// before limit, whichever is first), so the following Tick lands on it.
// The skipped cycles' FAWStalls are added in closed form: each request
// for a precharged bank stalls in every cycle from the bank's tRP/tRC
// deadline until the bus admits its ACT.
func (s *Scheduler) skipIdle(limit int64) {
	to := min(s.nextIssue(), limit) // the cycle the next Tick lands on
	if to <= s.cycle+1 {
		return
	}
	from := s.cycle + 1
	for i := range s.banks {
		b := &s.banks[i]
		if b.openRow != -1 || b.reqs == 0 {
			continue
		}
		if lo, hi := max(from, b.actReady), min(to, s.earliestACT(i)); hi > lo {
			s.stats.FAWStalls += uint64(b.reqs) * uint64(hi-lo)
		}
	}
	s.cycle = to - 1
}
