package report

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tivapromi/internal/campaign"
	"tivapromi/internal/sim"
)

// The digest of every checkpoint key the evaluation's campaigns use,
// recorded when sim.Fingerprint still ran encoding/json. A checkpoint
// written before the hand-written encoder stays fully warm only while
// this holds.
const (
	coldKeysDigest    = "4b3ee61df2932262539609809088501e79cbdbae30ba605c947aed273daa20b9"
	durableKeysDigest = "a3a62919c3d1056372b816df50f991c0a2fdd0970cc8b79d0e508d3519387d8e"
)

// TestCheckpointKeysPinned: every sweep member's key (the per-seed key
// and the seed-list form) and every probe cell's key in the eval-cold
// and eval-durable campaigns is unchanged.
func TestCheckpointKeysPinned(t *testing.T) {
	durable := campaign.DefaultEval()
	durable.SeedsPerPoint = 2
	durable.Base.Windows = 2
	durable.Trials = 5
	for _, c := range []struct {
		name   string
		ev     campaign.Eval
		skip   string
		digest string
	}{
		{"eval-cold", campaign.DefaultEval(), "", coldKeysDigest},
		{"eval-durable", durable, "latency", durableKeysDigest},
	} {
		var specs []campaign.Spec
		for _, def := range Sections() {
			if def.Name != c.skip {
				specs = append(specs, def.Spec(c.ev))
			}
		}
		h := sha256.New()
		sweeps := 0
		for _, cell := range campaign.Merge(c.name, specs...).Cells {
			if !cell.IsSweep() {
				h.Write([]byte(sim.ProbeFingerprint(cell.Key) + "\n"))
				continue
			}
			sweeps++
			for _, seeds := range [][]uint64{nil, cell.Seeds} {
				h.Write([]byte(sim.Fingerprint(cell.Config, cell.Technique, seeds) + "\n"))
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s: checkpoint keys of %d sweep cells digest to %s, pinned %s", c.name, sweeps, got, c.digest)
		}
	}
}
