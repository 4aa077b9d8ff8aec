package memctrl

import (
	"fmt"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// refScheduler is the linear-scan FR-FCFS scheduler the bank-major
// Scheduler replaced, kept verbatim (renamed) as the reference of
// TestBankMajorMatchesLinearScan: one arrival-ordered queue for all banks,
// scanned in queue order for the first ready row hit and then for the
// oldest request whose bank may ACT or PRE.

// refRequest is one memory request for the reference scheduler.
type refRequest struct {
	Bank int
	Row  int

	arrived int64
}

// refBankState is one bank's state machine.
type refBankState struct {
	openRow   int32 // -1 when precharged
	reqs      int32 // queued requests for this bank
	hits      int32 // queued requests for the open row (0 when precharged)
	actReady  int64 // earliest cycle an ACT may issue (tRP/tRC)
	colReady  int64 // earliest cycle a column command may issue (tRCD)
	preReady  int64 // earliest cycle a PRE may issue (tRAS)
	busyUntil int64 // data/maintenance occupancy
}

// refScheduler is a cycle-accurate FR-FCFS DDR4 controller front.
// Not safe for concurrent use.
type refScheduler struct {
	timing Timing
	dev    *dram.Device
	mit    mitigation.Mitigator

	banks    []refBankState
	queue    []refRequest
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

// newRefScheduler builds a cycle-accurate controller over dev with the given
// mitigation (nil for none) and a bounded request queue.
func newRefScheduler(t Timing, dev *dram.Device, mit mitigation.Mitigator, queueCap int) (*refScheduler, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if queueCap <= 0 {
		return nil, fmt.Errorf("memctrl: queue capacity %d", queueCap)
	}
	s := &refScheduler{
		timing:   t,
		dev:      dev,
		mit:      mit,
		banks:    make([]refBankState, dev.Params().TotalBanks()),
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
func (s *refScheduler) Stats() SchedStats { return s.stats }

// Cycle returns the controller clock.
func (s *refScheduler) Cycle() int64 { return s.cycle }

// QueueLen returns the number of queued requests.
func (s *refScheduler) QueueLen() int { return len(s.queue) }

// Enqueue adds a request; it reports false when the queue is full (the
// front-end must stall).
func (s *refScheduler) Enqueue(bank, row int) bool {
	if len(s.queue) >= s.queueCap {
		return false
	}
	if bank < 0 || bank >= len(s.banks) || row < 0 || row >= s.dev.Params().RowsPerBank {
		panic(fmt.Sprintf("memctrl: request out of range: bank %d row %d", bank, row))
	}
	s.queue = append(s.queue, refRequest{Bank: bank, Row: row, arrived: s.cycle})
	b := &s.banks[bank]
	b.reqs++
	if b.openRow == int32(row) {
		b.hits++
	}
	return true
}

// Tick advances the controller one cycle, issuing at most one command
// (the single command bus of a DDR4 channel).
func (s *refScheduler) Tick() {
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
func (s *refScheduler) earliestACT(bank int) int64 {
	gap := int64(s.timing.TRRD)
	if s.timing.BankGroups > 1 && s.timing.TRRDS > 0 && s.lastActBank >= 0 {
		if bank%s.timing.BankGroups != s.lastActBank%s.timing.BankGroups {
			gap = int64(s.timing.TRRDS)
		}
	}
	return max(s.lastAct+gap, s.acts[s.actHead]+int64(s.timing.TFAW))
}

// issueACT opens a row, feeding the device and the mitigation.
func (s *refScheduler) issueACT(bank, row int) {
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
func (s *refScheduler) issuePRE(bank int) {
	b := &s.banks[bank]
	b.openRow = -1
	b.hits = 0
	b.actReady = max(b.actReady, s.cycle+int64(s.timing.TRP))
}

// serve issues the column command for queue entry i and retires it.
func (s *refScheduler) serve(i int) {
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
func (s *refScheduler) issueMaintenance() bool {
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
func (s *refScheduler) issueRefresh() {
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
func (s *refScheduler) Drain(maxCycles int64) error {
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
func (s *refScheduler) RunIntervals(n int, next func() (bank, row int)) {
	target := s.dev.Interval() + n
	for s.dev.Interval() < target {
		for len(s.queue) < s.queueCap {
			s.Enqueue(next())
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
func (s *refScheduler) nextIssue() int64 {
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
func (s *refScheduler) skipIdle(limit int64) {
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
