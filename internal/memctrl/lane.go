package memctrl

import (
	"fmt"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// AccessesPerInterval derives how many serviced accesses fit in one
// refresh interval under the timing model: the interval length minus the
// refresh stall, divided by the row-miss service time (the dominant cost
// of the calibrated traffic, where most accesses activate). For the
// paper's DDR4 parameters this is (7800−350)/45 = 165 — exactly the
// tREFI/tRC activation ceiling (Params.MaxActsPerRI), which the result is
// additionally clamped to. The simulation driver uses this count to place
// refresh boundaries by access index instead of by a global clock, which
// is what makes per-bank simulation independent between boundaries.
func AccessesPerInterval(p dram.Params) int {
	n := int((p.TRefIntNs - p.TRFCNs) / p.TRCNs)
	if p.MaxActsPerRI > 0 && n > p.MaxActsPerRI {
		n = p.MaxActsPerRI
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Lane is the per-bank slice of the memory controller: one bank's row
// buffer, Row-Hammer command queue, and mitigation instance, driven by
// that bank's share of a count-sliced access stream. A Lane owns a
// single-bank dram.Device and a mitigation sized for one bank, so its
// entire state evolves from only the accesses routed to it and the
// positions of the refresh boundaries.
//
// Refresh boundaries fire lazily: the driver calls CatchUp(iv) before
// servicing an access belonging to global interval iv, and once more at
// the end of the run, so a lane that goes quiet for a few intervals fires
// its pending boundaries in order before its next access. A Lane is not
// safe for concurrent use.
type Lane struct {
	cmdQueue
	cfg Config

	openRow int32
	// hitRow is the row an access serves on Access's inlined fast path:
	// openRow while no access tick is installed, -1 (no row) otherwise.
	hitRow  int32
	fired   int   // refresh-interval boundaries fired so far
	ivInWin int32 // cached dev.IntervalInWindow(): avoids a modulo per activation
	refInt  int32
	tick    func()

	// obsAccesses is the value of stats.Accesses at the last
	// TakeAccesses. The lane never touches the (shared, atomic) obs
	// registry itself: the driver sums the deltas of a member's lanes
	// and flushes them once per access block.
	obsAccesses uint64
}

// NewLane builds a lane over a single-bank device with the given
// mitigation (nil for none).
func NewLane(cfg Config, dev *dram.Device, mit mitigation.Mitigator) (*Lane, error) {
	if cfg.RowHitNs == 0 || cfg.RowMissNs == 0 || cfg.PendingCap <= 0 {
		return nil, fmt.Errorf("memctrl: invalid config %+v", cfg)
	}
	if b := dev.Params().TotalBanks(); b != 1 {
		return nil, fmt.Errorf("memctrl: lane device has %d banks, want 1", b)
	}
	l := &Lane{
		cmdQueue: cmdQueue{dev: dev, mit: mit, pendingCap: cfg.PendingCap},
		cfg:      cfg,
		openRow:  -1,
		hitRow:   -1,
		refInt:   int32(dev.Params().RefInt),
	}
	l.afterExec = l.closeRow
	return l, nil
}

// AddMirror attaches a mirror device: a single-bank device of the lane's
// geometry that receives every activation, mitigation command and
// interval advance the lane's own device does, in the same order. The
// lane's row buffer, mitigation and command path serve both, so a
// configuration that differs from the lane's only in its device (refresh
// policy, row remap, injected disturbance) is simulated without a
// second mitigation. Install a mirror before the lane's first access.
func (l *Lane) AddMirror(dev *dram.Device) error {
	p, own := dev.Params(), l.dev.Params()
	if p.TotalBanks() != 1 || p.RowsPerBank != own.RowsPerBank || p.RefInt != own.RefInt {
		return fmt.Errorf("memctrl: mirror device geometry differs from the lane's")
	}
	l.mirrors = append(l.mirrors, dev)
	return nil
}

// IntervalsFired returns how many refresh-interval boundaries the lane
// has fired.
func (l *Lane) IntervalsFired() int { return l.fired }

// SetAccessTick installs a callback invoked once before every serviced
// access (per-access fault-injector ticks).
func (l *Lane) SetAccessTick(fn func()) {
	l.tick = fn
	l.hitRow = -1
	if fn == nil {
		l.hitRow = l.openRow
	}
}

// Access services one read/write to the lane's bank. A row hit leaves the
// device untouched; a row miss activates the row, feeds the mitigation,
// and drains any buffered Row-Hammer commands.
//
// The row-hit case is split out and inlines into the driver's loop: a hit
// with no access tick installed is one compare and two increments.
// Everything else — including hits when a fault injector needs its
// per-access tick — takes the full path. Writes and reads have identical
// Row-Hammer behavior, so an access carries no direction.
func (l *Lane) Access(row int32) {
	if l.hitRow == row {
		l.stats.Accesses++
		l.stats.RowHits++
		return
	}
	l.accessFull(row)
}

func (l *Lane) accessFull(row int32) {
	if l.tick != nil {
		l.tick()
	}
	l.stats.Accesses++
	if l.openRow == row {
		l.stats.RowHits++
		return
	}
	l.stats.RowMisses++
	if l.cfg.ClosedPage {
		l.open(-1) // auto-precharge
	} else {
		l.open(row)
	}
	l.dev.Activate(0, int(row))
	for _, d := range l.mirrors {
		d.Activate(0, int(row))
	}
	if l.mit != nil {
		// Most activations trigger nothing: skip the queue machinery when
		// the mitigation returned no commands, and write the scratch slice
		// back only when it grew (a pointer store here would otherwise put
		// a GC write barrier on every activation).
		cmds := l.mit.OnActivate(0, int(row), int(l.ivInWin), l.scratch[:0])
		if len(cmds) != 0 {
			if cap(cmds) > cap(l.scratch) {
				l.scratch = cmds
			}
			l.enqueue(cmds)
			l.drain()
		}
	}
}

// CatchUp fires refresh-interval boundaries until the lane has fired
// `interval` of them. Drivers call it with the global interval index an
// access belongs to (before servicing it), and with the total interval
// count at the end of a run.
func (l *Lane) CatchUp(interval int) {
	for l.fired < interval {
		l.fireRefreshInterval()
	}
}

func (l *Lane) fireRefreshInterval() {
	l.refreshCommands(int(l.ivInWin))
	l.dev.AdvanceInterval()
	for _, d := range l.mirrors {
		d.AdvanceInterval()
	}
	l.open(-1) // refresh precharges the bank
	l.fired++
	l.ivInWin++
	if l.ivInWin == l.refInt {
		l.ivInWin = 0
	}
	if l.mit != nil && l.ivInWin == 0 {
		l.mit.OnNewWindow()
	}
}

// TakeAccesses returns the accesses the lane has serviced since the
// previous call, for the driver's access metric.
func (l *Lane) TakeAccesses() uint64 {
	d := l.stats.Accesses - l.obsAccesses
	l.obsAccesses = l.stats.Accesses
	return d
}

// closeRow is the lane's after-execute step: the maintenance activation
// precharged the bank.
func (l *Lane) closeRow(int) { l.open(-1) }

// open records the bank's open row, -1 when precharged.
func (l *Lane) open(row int32) {
	l.openRow = row
	if l.tick == nil {
		l.hitRow = row
	}
}
