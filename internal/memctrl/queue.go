package memctrl

import (
	"fmt"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// cmdQueue is the Row-Hammer command path of Fig. 1, shared by the
// time-based Controller and the count-based Lane: mitigation commands
// pass a fault filter, wait in a bounded buffer while the controller is
// busy, and are issued to the device when it is free. Each owner
// supplies afterExec, its own bookkeeping once a maintenance activation
// has precharged a bank (closing its row buffer, advancing its clock).
type cmdQueue struct {
	dev *dram.Device
	mit mitigation.Mitigator // nil for an unprotected system
	// mirrors receive every command dev does (see Lane.AddMirror); the
	// Controller has none.
	mirrors []*dram.Device

	pendingCap int
	pending    []mitigation.Command
	delayed    []mitigation.Command
	scratch    []mitigation.Command
	stats      Stats
	hook       func(mitigation.Command)
	filter     func(mitigation.Command) Disposition
	afterExec  func(bank int)
}

// Device returns the controlled device.
func (q *cmdQueue) Device() *dram.Device { return q.dev }

// Stats returns the controller counters.
func (q *cmdQueue) Stats() Stats { return q.stats }

// SetCommandHook installs an observer called for every mitigation command
// executed. The experiment harness uses it to classify commands against
// attack ground truth (false-positive accounting).
func (q *cmdQueue) SetCommandHook(fn func(mitigation.Command)) { q.hook = fn }

// SetCommandFilter installs a fault filter consulted for every mitigation
// command before it is buffered. Dropped commands never reach the device;
// delayed commands execute at the next refresh-interval boundary (once —
// a promoted command is not re-filtered, so a filter cannot starve the
// path forever). A nil filter delivers everything.
func (q *cmdQueue) SetCommandFilter(fn func(mitigation.Command) Disposition) { q.filter = fn }

// ExtraActivations returns the total mitigation-issued activations the
// device observed (the numerator of the paper's activation overhead).
func (q *cmdQueue) ExtraActivations() uint64 {
	s := q.dev.Stats()
	return s.NeighborActs + s.DirectRefreshes
}

// enqueue buffers mitigation commands; on overflow the controller stalls
// and executes the command immediately (the wait handshake).
func (q *cmdQueue) enqueue(cmds []mitigation.Command) {
	for _, cmd := range cmds {
		if q.filter != nil {
			switch q.filter(cmd) {
			case Drop:
				q.stats.DroppedCmds++
				continue
			case Delay:
				q.stats.DelayedCmds++
				q.delayed = append(q.delayed, cmd)
				continue
			}
		}
		if len(q.pending) >= q.pendingCap {
			q.stats.Overflows++
			q.execute(cmd)
			continue
		}
		q.pending = append(q.pending, cmd)
		if len(q.pending) > q.stats.PendingPeak {
			q.stats.PendingPeak = len(q.pending)
		}
	}
}

// drain issues buffered RH commands ("when wait is low").
func (q *cmdQueue) drain() {
	for _, cmd := range q.pending {
		q.execute(cmd)
	}
	q.pending = q.pending[:0]
}

// execute performs one mitigation command on the device. Maintenance
// activations end with the bank precharged, so the next normal access
// reopens its row.
func (q *cmdQueue) execute(cmd mitigation.Command) {
	if q.hook != nil {
		q.hook(cmd)
	}
	switch cmd.Kind {
	case mitigation.ActN:
		q.stats.ActN++
	case mitigation.ActNOne:
		q.stats.ActNOne++
	case mitigation.RefreshRow:
		q.stats.RefreshRow++
	default:
		panic(fmt.Sprintf("memctrl: unknown command kind %v", cmd.Kind))
	}
	executeOn(q.dev, cmd)
	for _, d := range q.mirrors {
		executeOn(d, cmd)
	}
	q.afterExec(cmd.Bank)
}

// executeOn performs a validated mitigation command on one device.
func executeOn(d *dram.Device, cmd mitigation.Command) {
	switch cmd.Kind {
	case mitigation.ActN:
		d.ActivateNeighbors(cmd.Bank, cmd.Row)
	case mitigation.ActNOne:
		d.ActivateNeighbor(cmd.Bank, cmd.Row, int(cmd.Side))
	case mitigation.RefreshRow:
		d.RefreshRow(cmd.Bank, cmd.Row)
	}
}

// refreshCommands runs the command side of a refresh-interval boundary
// at interval-in-window iv: fault-delayed commands execute first, one
// interval late and bypassing the filter so a command is delayed at most
// once; then the mitigation observes ref and its commands execute.
func (q *cmdQueue) refreshCommands(iv int) {
	if len(q.delayed) > 0 {
		q.pending = append(q.pending, q.delayed...)
		q.delayed = q.delayed[:0]
		q.drain()
	}
	if q.mit != nil {
		q.scratch = q.mit.OnRefreshInterval(iv, q.scratch[:0])
		q.enqueue(q.scratch)
		q.drain()
	}
}
