// Package memctrl models the memory controller that TiVaPRoMi extends
// (Fig. 1): an open-page controller with per-bank row buffers, a time base
// that fires auto-refresh intervals, and the Row-Hammer interrupt path —
// mitigation commands are buffered while the controller is busy (the
// figure's wait signal) and issued through the same interrupt logic as
// refreshes.
//
// Timing is modeled at the service-time level: a row hit costs the CAS
// latency, a row miss the full activate cycle (tRC), and every refresh
// interval inserts tRFC. That is enough to reproduce the paper's traffic
// statistics (activations per refresh interval) without a cycle-accurate
// scheduler.
package memctrl

import (
	"context"
	"fmt"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// Disposition is a command filter's verdict on one mitigation command,
// modeling faults on the maintenance-command path between controller and
// device.
type Disposition int

const (
	// Deliver executes the command normally.
	Deliver Disposition = iota
	// Drop discards the command: the neighbor refresh never happens (a
	// lost act_n on a marginal bus, or an arbiter that starves the
	// Row-Hammer interrupt path under load).
	Drop
	// Delay postpones the command to the next refresh-interval boundary —
	// one service-priority inversion late, the QPRAC imperfect-service
	// scenario.
	Delay
)

// Config sets the controller's timing model in nanoseconds.
type Config struct {
	RowHitNs  uint64 // service time when the row is already open
	RowMissNs uint64 // service time with an activation (tRC-dominated)
	// ClosedPage selects the auto-precharge row-buffer policy: every
	// access activates (no row hits). Closed-page systems hand a
	// Row-Hammer attacker free activations — even a single hammered
	// address activates on every access — which is why the open-page
	// default matters for the attack analysis.
	ClosedPage bool
	// PendingCap bounds the Row-Hammer command buffer of Fig. 1. The
	// buffer drains whenever the controller is free (after each access
	// and at every refresh boundary), so a small buffer suffices; an
	// overflow is counted, not dropped silently.
	PendingCap int
}

// DefaultConfig returns DDR4-flavored service times.
func DefaultConfig() Config {
	return Config{RowHitNs: 15, RowMissNs: 45, PendingCap: 8}
}

// Stats aggregates controller activity.
type Stats struct {
	Accesses  uint64
	RowHits   uint64
	RowMisses uint64
	// Mitigation command counts by kind.
	ActN       uint64
	ActNOne    uint64
	RefreshRow uint64
	// PendingPeak is the high-water mark of the RH buffer; Overflows
	// counts commands that found the buffer full and stalled the
	// controller (executed immediately with a stall, as the paper's wait
	// handshake implies).
	PendingPeak int
	Overflows   uint64
	// DroppedCmds and DelayedCmds count commands a fault filter discarded
	// or postponed (zero without a filter installed).
	DroppedCmds uint64
	DelayedCmds uint64
}

// Controller drives a dram.Device, optionally with a mitigation attached.
// It is not safe for concurrent use.
type Controller struct {
	cmdQueue
	cfg Config

	openRows []int32
	timeNs   uint64
	nextRef  uint64
	refStep  uint64
	trfc     uint64
}

// New builds a controller over dev with the given mitigation (nil for
// none).
func New(cfg Config, dev *dram.Device, mit mitigation.Mitigator) (*Controller, error) {
	if cfg.RowHitNs == 0 || cfg.RowMissNs == 0 || cfg.PendingCap <= 0 {
		return nil, fmt.Errorf("memctrl: invalid config %+v", cfg)
	}
	p := dev.Params()
	c := &Controller{
		cmdQueue: cmdQueue{dev: dev, mit: mit, pendingCap: cfg.PendingCap},
		cfg:      cfg,
		openRows: make([]int32, p.TotalBanks()),
		refStep:  uint64(p.TRefIntNs),
		trfc:     uint64(p.TRFCNs),
	}
	c.afterExec = c.closeRow
	for b := range c.openRows {
		c.openRows[b] = -1
	}
	c.nextRef = c.refStep
	return c, nil
}

// TimeNs returns the controller clock.
func (c *Controller) TimeNs() uint64 { return c.timeNs }

// OpenRow returns the open row of a bank (-1 when precharged).
func (c *Controller) OpenRow(bank int) int { return int(c.openRows[bank]) }

// AccessRow services one read/write to (bank, row): a row hit costs
// RowHitNs; a row miss activates the row (feeding the mitigation) and
// costs RowMissNs. Refresh boundaries crossed by the advancing clock fire
// before the access completes.
func (c *Controller) AccessRow(bank, row int, write bool) {
	_ = write // writes and reads have identical Row-Hammer behavior
	c.stats.Accesses++
	if c.openRows[bank] == int32(row) {
		c.stats.RowHits++
		c.advance(c.cfg.RowHitNs)
		return
	}
	c.stats.RowMisses++
	if c.cfg.ClosedPage {
		c.openRows[bank] = -1 // auto-precharge
	} else {
		c.openRows[bank] = int32(row)
	}
	c.dev.Activate(bank, row)
	if c.mit != nil {
		c.scratch = c.mit.OnActivate(bank, row, c.dev.IntervalInWindow(), c.scratch[:0])
		c.enqueue(c.scratch)
	}
	c.advance(c.cfg.RowMissNs)
	c.drain()
}

// closeRow is the controller's after-execute step: the maintenance
// activation precharged the bank and occupied it for a full row cycle.
func (c *Controller) closeRow(bank int) {
	c.openRows[bank] = -1
	c.advanceNoRefresh(c.cfg.RowMissNs)
}

// advance moves the clock, firing every refresh boundary it crosses.
func (c *Controller) advance(ns uint64) {
	c.timeNs += ns
	for c.timeNs >= c.nextRef {
		c.fireRefreshInterval()
	}
}

// advanceNoRefresh moves the clock without re-entering refresh handling
// (used while executing commands inside a refresh boundary).
func (c *Controller) advanceNoRefresh(ns uint64) {
	c.timeNs += ns
}

// fireRefreshInterval runs the end-of-interval protocol: the mitigation
// observes ref, its commands execute, the device refreshes, rows close,
// and a completed window resets window-scoped mitigation state.
func (c *Controller) fireRefreshInterval() {
	c.refreshCommands(c.dev.IntervalInWindow())
	c.dev.AdvanceInterval()
	for b := range c.openRows {
		c.openRows[b] = -1 // refresh precharges all banks
	}
	c.timeNs += c.trfc
	c.nextRef += c.refStep
	if c.mit != nil && c.dev.IntervalInWindow() == 0 {
		c.mit.OnNewWindow()
	}
}

// RunIntervals drives the controller with accesses from next() until n
// refresh intervals have elapsed. next is called once per access.
func (c *Controller) RunIntervals(n int, next func() (bank, row int, write bool)) {
	target := c.dev.Interval() + n
	for c.dev.Interval() < target {
		bank, row, write := next()
		c.AccessRow(bank, row, write)
	}
}

// RunIntervalsCtx is RunIntervals with cooperative cancellation: the
// context is polled every 1024 accesses (cheap enough for the hot loop,
// fine-grained enough that a canceled seed sweep stops within
// microseconds of simulated progress). It returns ctx.Err() when the run
// was cut short, nil on normal completion.
func (c *Controller) RunIntervalsCtx(ctx context.Context, n int, next func() (bank, row int, write bool)) error {
	target := c.dev.Interval() + n
	for i := 0; c.dev.Interval() < target; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		bank, row, write := next()
		c.AccessRow(bank, row, write)
	}
	return nil
}
