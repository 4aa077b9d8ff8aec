package sim

import (
	"context"
	"fmt"
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/faults"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/obs"
)

// The group driver as it was before it served blocks bank-major, kept as
// the reference of TestBankMajorMatchesArrivalOrder: each block is
// generated into arrival-order arrays, and every member routes the
// accesses to their banks' lanes in arrival order.

// arrivalBlock holds one block of generated accesses in SoA form. The
// refresh interval of an access is not stored: it follows from the
// access index.
type arrivalBlock struct {
	row  [blockLen]int32
	bank [blockLen]int32
}

// fillArrival generates the next n accesses into blk.
func (st *stream) fillArrival(blk *arrivalBlock, n int) {
	st.k.Fill(blk.bank[:n], blk.row[:n])
}

// serveArrival routes the first n accesses of blk, whose first access is
// access base of the run, to the member's lanes. The laneIv gate
// replaces a CatchUp call per access with a compare that only fails on a
// lane's first access of a new interval.
func (e *runEnv) serveArrival(blk *arrivalBlock, base, n int) {
	api := e.src.api
	iv, rem := int32(base/api), api-base%api
	lanes, laneIv := e.lanes, e.laneIv
	rows, banks := blk.row[:n], blk.bank[:n]
	for j, row := range rows {
		if rem == 0 {
			iv++
			rem = api
		}
		rem--
		b := banks[j]
		l := lanes[b]
		if laneIv[b] != iv {
			l.CatchUp(int(iv))
			laneIv[b] = iv
		}
		l.Access(row)
	}
}

// driveArrival generates the whole stream block by block and services
// each block through every member in arrival order.
func (src *source) driveArrival(ctx context.Context, envs []*runEnv) error {
	hb := HeartbeatFrom(ctx)
	blk := new(arrivalBlock)
	total := src.total()
	for base := 0; base < total; base += blockLen {
		if err := ctx.Err(); err != nil {
			return err
		}
		if hb != nil {
			hb.Tick()
		}
		n := min(blockLen, total-base)
		src.st.fillArrival(blk, n)
		metrics := obs.MetricsEnabled()
		for _, e := range envs {
			e.serveArrival(blk, base, n)
			if metrics {
				e.flushAccesses()
			}
		}
	}
	for _, e := range envs {
		e.finish()
	}
	return nil
}

// runGroupArrival is runGroup over driveArrival: the same seats, mirrors
// and certificates; a rider whose certificate fails re-runs alone.
func runGroupArrival(ctx context.Context, members []Member) ([]Result, error) {
	g, err := prepareGroup(members)
	if err != nil {
		return nil, err
	}
	if err := g.src.driveArrival(ctx, g.envs); err != nil {
		return nil, err
	}
	out := make([]Result, len(members))
	for i, s := range g.seats {
		if s.host < 0 {
			out[i] = g.envs[s.env].collect(s.side)
		}
	}
	for i, s := range g.seats {
		if s.host < 0 {
			continue
		}
		if g.envs[g.seats[s.host].env].certify(members[i].Config) {
			out[i] = out[s.host]
			continue
		}
		live, err := runGroupArrival(ctx, members[i:i+1])
		if err != nil {
			return nil, err
		}
		out[i] = live[0]
	}
	return out, nil
}

// TestBankMajorMatchesArrivalOrder is the bank-major driver's license:
// serving each block one lane at a time gives every member the Result
// that serving it in arrival order gives, bit for bit (floats compared by
// their bits). It covers the unprotected system and every registry
// technique as one group on the dense scaled geometry (and each alone
// there) and on the sparse full-DIMM one, with blocks that straddle
// refresh-interval boundaries; and one group that holds a host with a
// policy mirror, a remap mirror, a weak-cells mirror, a drop and a delay
// rider, a state-seu run and a biased-rng run.
func TestBankMajorMatchesArrivalOrder(t *testing.T) {
	ctx := context.Background()
	scaled := DefaultConfig()
	scaled.Windows = 1
	full := DefaultConfig()
	full.Params = dram.FullDIMMParams()
	full.Params.RefInt = 1024 // a shorter window; banks, rows and sparse state stay full-DIMM
	full.Windows = 1
	for _, geom := range []struct {
		name string
		cfg  Config
	}{{"scaled", scaled}, {"fulldimm", full}} {
		if api := memctrl.AccessesPerInterval(geom.cfg.Params); api != 165 || blockLen%api == 0 {
			t.Fatalf("%s: %d accesses per interval against %d-access blocks: blocks would not straddle interval boundaries", geom.name, api, blockLen)
		}
		if geom.name == "fulldimm" && !geom.cfg.Params.Sparse() {
			t.Fatal("full-DIMM geometry is not sparse")
		}
		var all []Member
		for _, tech := range append([]string{""}, mitigation.Names()...) {
			all = append(all, Member{Config: geom.cfg, Technique: tech, Cell: fmt.Sprintf("%q", tech)})
		}
		if geom.name == "scaled" {
			for _, m := range all {
				sameAsArrivalOrder(t, geom.name+" alone", []Member{m})
			}
		}
		sameAsArrivalOrder(t, geom.name+" all techniques", all)
	}

	base := scaled
	members := []Member{{Config: base, Technique: "LoLiPRoMi", Cell: "host"}}
	add := func(cell string, mutate func(*Config)) {
		c := base
		mutate(&c)
		members = append(members, Member{Config: c, Technique: "LoLiPRoMi", Cell: cell})
	}
	add("policy mirror", func(c *Config) { c.Policy = PolicyRandom })
	add("remap mirror", func(c *Config) { c.RemapSwaps = 16 })
	add("weak-cells mirror", func(c *Config) { c.Fault = faults.Plan{Model: faults.WeakCells, Rate: 1e-3, Seed: 5} })
	add("drop rider", func(c *Config) { c.Fault = faults.Plan{Model: faults.DropActN, Rate: 0.5, Seed: 5} })
	add("delay rider", func(c *Config) { c.Fault = faults.Plan{Model: faults.DelayActN, Rate: 1e-4, Seed: 5} })
	add("state-seu", func(c *Config) { c.Fault = faults.Plan{Model: faults.StateSEU, Rate: 0.01, Seed: 5} })
	add("biased-rng", func(c *Config) { c.Fault = faults.Plan{Model: faults.BiasedRNG, Rate: 0.01, Seed: 5} })
	_, rc, err := runGroup(ctx, members)
	if err != nil {
		t.Fatal(err)
	}
	if rc.mirrors != 3 || rc.certified+rc.failed != 2 || rc.failed == 0 {
		t.Fatalf("riders %+v; want 3 mirrors and 2 certified riders, one of them failing its certificate", rc)
	}
	sameAsArrivalOrder(t, "riders", members)
}

// sameAsArrivalOrder runs members as one group bank-major and in arrival
// order and requires equal Results.
func sameAsArrivalOrder(t *testing.T, name string, members []Member) {
	t.Helper()
	ctx := context.Background()
	got, err := RunGroup(ctx, members)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := runGroupArrival(ctx, members)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	for i, m := range members {
		if !sameResult(got[i], want[i]) {
			t.Errorf("%s: %s diverged from arrival order\n got: %+v\nwant: %+v", name, m.Cell, got[i], want[i])
		}
	}
}
