package sim

import (
	"context"

	"tivapromi/internal/faults"
	"tivapromi/internal/obs"
)

// Ride is how a group member takes its run from another member of the
// group, its host, instead of being simulated on lanes of its own.
type Ride int

const (
	// Live members are simulated on their own lanes.
	Live Ride = iota
	// Mirror members differ from their host only on the device side: the
	// refresh policy, RemapSwaps, or a WeakCells plan. Nothing on the
	// device side feeds back into the row buffer, the mitigation or the
	// command path, so the host's lanes drive the mirror's own per-lane
	// devices with the host's activations, commands and interval
	// advances, ticking the mirror's weak-cell injector before each
	// access. A mirror holds its own per-row device state.
	Mirror
	// Certified members carry an active DropActN or DelayActN plan and
	// otherwise equal a healthy host. Until its gate first fires, the
	// command filter delivers every command, so a rider whose gate does
	// not fire within the commands the host's lanes executed runs exactly
	// as the host ran. After the host's run, the gate is replayed per
	// lane; if no draw fires, the rider's Result is the host's, and
	// otherwise the rider runs live in a second pass. A certified rider
	// holds no state while its host runs.
	Certified
)

// RideOf reports how m can take its run from host. host and m must share
// a stream key, as the members of one group do; RunGroup and the
// campaign planner only ask about such pairs. Only a host whose device
// side is the default (neighbors policy, no remap, no weak cells) and
// whose command path is fault-free can host, so a rider never hosts
// another, and members with a custom Factory never ride (two factories
// cannot be compared).
func RideOf(host, m *Member) Ride {
	h, c := &host.Config, &m.Config
	if m.Technique != host.Technique || h.Factory != nil || c.Factory != nil ||
		c.FactoryLabel != h.FactoryLabel || !h.hosts() || c.hosts() {
		return Live
	}
	switch {
	case c.Fault.IsCommandPath():
		if !h.Fault.Active() && c.Policy == h.Policy && c.RemapSwaps == h.RemapSwaps {
			return Certified
		}
	case laneFault(c.Fault) == laneFault(h.Fault):
		return Mirror
	}
	return Live
}

// hosts reports whether a member with config c can host riders.
func (c Config) hosts() bool {
	return c.Policy == PolicyNeighbors && c.RemapSwaps == 0 &&
		c.Fault.Model != faults.WeakCells && !c.Fault.IsCommandPath()
}

// laneFault is the part of a plan that acts on a lane's mitigation and
// command path: nothing for an inactive or a WeakCells plan, which inject
// nothing there.
func laneFault(p faults.Plan) faults.Plan {
	if !p.Active() || p.Model == faults.WeakCells {
		return faults.Plan{}
	}
	return p
}

// seatRiders assigns every member that can ride another its host, the
// first member it can ride, and how it rides; rides[i] is Live for a
// member simulated on its own lanes.
func seatRiders(members []Member) (hostOf []int, rides []Ride) {
	hostOf = make([]int, len(members))
	rides = make([]Ride, len(members))
	for i := range members {
		for h := range members {
			if r := RideOf(&members[h], &members[i]); r != Live {
				hostOf[i], rides[i] = h, r
				break
			}
		}
	}
	return hostOf, rides
}

// countRiders returns how many members of a group ride another.
func countRiders(members []Member) int {
	if len(members) < 2 {
		return 0
	}
	n := 0
	_, rides := seatRiders(members)
	for _, r := range rides {
		if r != Live {
			n++
		}
	}
	return n
}

// rideCounts tallies how a group's riders were served.
type rideCounts struct {
	mirrors   int // served from their host's lanes
	certified int // took their host's Result
	failed    int // certificate failed: ran live in the second pass
}

// runGroup is RunGroup, also reporting how its riders were served.
func runGroup(ctx context.Context, members []Member) ([]Result, rideCounts, error) {
	var rc rideCounts
	g, err := prepareGroup(members)
	if err != nil {
		return nil, rc, err
	}
	if err := g.src.drive(ctx, g.envs); err != nil {
		return nil, rc, err
	}
	out := make([]Result, len(members))
	for i, s := range g.seats {
		if s.host < 0 {
			out[i] = g.envs[s.env].collect(s.side)
			if s.side > 0 {
				rc.mirrors++
			}
		}
	}
	var again []Member
	var at []int
	for i, s := range g.seats {
		if s.host < 0 {
			continue
		}
		if g.envs[g.seats[s.host].env].certify(members[i].Config) {
			out[i] = out[s.host]
			rc.certified++
			continue
		}
		again = append(again, members[i])
		at = append(at, i)
	}
	rc.failed = len(again)
	obs.MirrorRuns.Add(uint64(rc.mirrors))
	obs.CertifiedRuns.Add(uint64(rc.certified))
	obs.CertificateFailures.Add(uint64(rc.failed))
	// Certified riders never host, so the second pass seats no riders.
	for k := 0; k < len(again); k += GroupCap {
		n := min(GroupCap, len(again)-k)
		live, err := RunGroup(ctx, again[k:k+n])
		if err != nil {
			return nil, rc, err
		}
		for j, res := range live {
			out[at[k+j]] = res
		}
	}
	return out, rc, nil
}

// certify reports whether a certified rider with config cfg runs exactly
// as this env's healthy member ran: on every lane, the rider's command
// gate (the draws faults.CommandFilter makes, from the plan seed
// newRunEnv gives the lane) does not fire within the commands the lane
// executed. Every command a healthy lane receives is executed once, so
// that count is the number of draws the rider's filter would make.
func (e *runEnv) certify(cfg Config) bool {
	for b, l := range e.lanes {
		s := l.Stats()
		if faults.CommandFaultWithin(lanePlan(cfg, b), s.ActN+s.ActNOne+s.RefreshRow) {
			return false
		}
	}
	return true
}
