package sim

import (
	"context"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// attack is one attack probe's pattern against a single bank, driven
// through a mitigation's decision law with no device in the loop: every
// refresh interval activates the next perInterval rows of rows (cycling,
// the position carried across intervals), then ends with the interval's
// refresh hook. A probe is an attack definition; run is the one loop
// that drives them all.
type attack struct {
	// start is the in-window refresh interval the attack begins in, and
	// intervals how many it lasts.
	start, intervals int
	rows             []int
	perInterval      int
	// victims are the rows whose restoration counts as protection.
	victims []int
	// untilFirst ends the attack at its first protecting command.
	untilFirst bool
}

// outcome is what one attack observed.
type outcome struct {
	acts uint64 // activations driven
	// onAct and onRefresh count protecting commands by the hook that
	// emitted them.
	onAct, onRefresh int
	// first is the activation count at the first protecting command
	// (0: none came).
	first uint64
}

// run drives the attack against m, polling ctx every 64 intervals and
// telling m about every window end it crosses.
func (a attack) run(ctx context.Context, m mitigation.Mitigator, p dram.Params) (outcome, error) {
	var o outcome
	var cmds []mitigation.Command
	pos := 0
	for n := 0; n < a.intervals; n++ {
		if n&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				return o, err
			}
		}
		iv := (a.start + n) % p.RefInt
		for i := 0; i < a.perInterval; i++ {
			row := a.rows[pos]
			if pos++; pos == len(a.rows) {
				pos = 0
			}
			o.acts++
			cmds = m.OnActivate(0, row, iv, cmds[:0])
			if len(cmds) == 0 {
				continue
			}
			if k := protections(cmds, a.victims); k > 0 {
				o.onAct += k
				if o.first == 0 {
					o.first = o.acts
				}
				if a.untilFirst {
					return o, nil
				}
			}
		}
		cmds = m.OnRefreshInterval(iv, cmds[:0])
		if k := protections(cmds, a.victims); k > 0 {
			o.onRefresh += k
			if o.first == 0 {
				o.first = o.acts
			}
			if a.untilFirst {
				return o, nil
			}
		}
		if iv == p.RefInt-1 {
			m.OnNewWindow()
		}
	}
	return o, nil
}

// protections counts the commands in cmds that restore a victim: an
// act_n on a victim's neighbour, a one-sided act_n whose Row+Side is a
// victim, or a direct refresh of a victim. A flip is a property of the
// victim, so this one rule serves every probe.
func protections(cmds []mitigation.Command, victims []int) int {
	n := 0
	for _, c := range cmds {
		for _, v := range victims {
			if restores(c, v) {
				n++
				break
			}
		}
	}
	return n
}

func restores(c mitigation.Command, victim int) bool {
	switch c.Kind {
	case mitigation.ActN:
		return c.Row == victim-1 || c.Row == victim+1
	case mitigation.ActNOne:
		return c.Row+int(c.Side) == victim
	case mitigation.RefreshRow:
		return c.Row == victim
	}
	return false
}

// bankTarget is the device a probe's mitigation defends: one bank of p.
func bankTarget(p dram.Params) mitigation.Target {
	return mitigation.Target{
		Banks: 1, RowsPerBank: p.RowsPerBank, RefInt: p.RefInt,
		FlipThreshold: p.FlipThreshold,
	}
}
