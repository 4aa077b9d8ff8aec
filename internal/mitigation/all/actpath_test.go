package all

import (
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/obs"
	"tivapromi/internal/rng"
)

// The act-path harness: each technique's activation path (OnActivate
// plus its share of interval work) in isolation, against a deterministic
// synthetic access pattern. TestActPathAllocFree gates it at 0 allocs
// per activation; the BenchmarkActPath* functions report ns/act, with a
// "before" reference that reruns RNG-backed techniques on the serial
// bit-by-bit LFSR the seed implementation stepped. The benchmark module
// under bench/ times the whole simulation pipeline stage by stage.

// actPathTechniques are the benchmarked techniques: the paper's
// probabilistic family plus the deterministic counter baselines whose
// table lookups the overhaul rewrote.
var actPathTechniques = []string{"PARA", "TWiCe", "CaPRoMi", "LiPRoMi", "LoPRoMi", "LoLiPRoMi"}

// benchTarget is the device geometry the act path runs against: the
// scaled simulator default, so the numbers correspond to the
// configuration every experiment uses.
func benchTarget() mitigation.Target {
	p := dram.ScaledParams()
	return mitigation.Target{
		Banks:         p.TotalBanks(),
		RowsPerBank:   p.RowsPerBank,
		RefInt:        p.RefInt,
		FlipThreshold: p.FlipThreshold,
	}
}

// actsPerInterval matches the traffic statistic the paper reports (≈40
// activations per bank-interval); the synthetic pattern advances the
// interval clock at that rate so interval-indexed weights sweep their
// whole range.
const actsPerInterval = 40

// driveActPath feeds n synthetic activations to m and returns the number
// of commands it emitted together with the (possibly grown) scratch
// buffer. The pattern is deterministic and RNG-free: a double-sided
// hammer pair sweeps each bank while background accesses rotate over the
// row space, and every actsPerInterval*banks activations the interval
// advances (with OnRefreshInterval and window wrap), so counter pruning,
// history aging and time-varying weights are all exercised.
func driveActPath(m mitigation.Mitigator, t mitigation.Target, n int, scratch []mitigation.Command) (int, []mitigation.Command) {
	emitted := 0
	interval := 0
	perTick := actsPerInterval * t.Banks
	victim := t.RowsPerBank / 2
	for i := 0; i < n; i++ {
		bank := i % t.Banks
		var row int
		if i%3 != 0 {
			// Hammer: alternate the two aggressors of the victim.
			row = victim - 1 + 2*(i&1)
		} else {
			// Background: rotate over the row space, coprime stride.
			row = (i * 97) % t.RowsPerBank
		}
		scratch = m.OnActivate(bank, row, interval, scratch[:0])
		emitted += len(scratch)
		if (i+1)%perTick == 0 {
			scratch = m.OnRefreshInterval(interval, scratch[:0])
			emitted += len(scratch)
			interval++
			if interval == t.RefInt {
				interval = 0
				m.OnNewWindow()
			}
		}
		// Mirror the simulation driver's access-metric flush (see
		// sim's runEnv.flushAccesses): one atomic add per 1024-access
		// block, nothing per act. Driving it here means the benchmarks
		// and the alloc gate measure the act path as deployed, obs
		// included.
		if (i+1)%1024 == 0 && obs.MetricsEnabled() {
			obs.Accesses.Add(1024)
		}
	}
	return emitted, scratch
}

// TestActPathAllocFree is the alloc-regression gate: after warm-up, the
// activation path of every benchmarked technique must not allocate. A
// regression here (a map reintroduced on a hot lookup, a command buffer
// grown per call) silently costs an order of magnitude in campaign
// throughput, so it fails the build rather than a benchmark review.
//
// The gate runs twice per technique: once with the obs metrics flush
// enabled (the deployed configuration — the 0 allocs/act guarantee must
// cover instrumentation) and once with it disabled (isolating any
// regression to the technique itself rather than the obs layer).
func TestActPathAllocFree(t *testing.T) {
	wasOn := obs.MetricsEnabled()
	defer obs.SetMetricsEnabled(wasOn)
	for _, metricsOn := range []bool{true, false} {
		label := "metrics-on"
		if !metricsOn {
			label = "metrics-off"
		}
		t.Run(label, func(t *testing.T) {
			obs.SetMetricsEnabled(metricsOn)
			for _, name := range actPathTechniques {
				t.Run(name, func(t *testing.T) {
					tgt := benchTarget()
					factory, err := mitigation.Lookup(name)
					if err != nil {
						t.Fatalf("lookup: %v", err)
					}
					m := factory(tgt, 1)
					// Warm-up: grow the scratch buffer and fill the technique's
					// tables to steady state.
					_, scratch := driveActPath(m, tgt, 8*actsPerInterval*tgt.Banks, nil)
					const actsPerRun = 2 * actsPerInterval // spans an interval tick
					allocs := testing.AllocsPerRun(50, func() {
						_, scratch = driveActPath(m, tgt, actsPerRun, scratch)
					})
					if allocs != 0 {
						t.Errorf("%s act path (%s) allocates %.2f objects per %d activations, want 0",
							name, label, allocs, actsPerRun)
					}
				})
			}
		})
	}
}

// benchActPath drives b.N activations through a fresh instance of the
// technique. When serial is true the decision RNG is replaced by the
// serial LFSR reference.
func benchActPath(b *testing.B, name string, serial bool) {
	t := benchTarget()
	factory, err := mitigation.Lookup(name)
	if err != nil {
		b.Fatalf("lookup %s: %v", name, err)
	}
	m := factory(t, 1)
	if serial {
		rs, ok := m.(mitigation.RandSettable)
		if !ok {
			b.Fatalf("%s does not implement RandSettable", name)
		}
		rs.SetRandSource(rng.NewSerialLFSR32(1))
	}
	// Warm the scratch buffer and the technique's tables so the timed
	// region measures steady state, not first-touch growth.
	_, scratch := driveActPath(m, t, 4*actsPerInterval*t.Banks, nil)
	b.ReportAllocs()
	b.ResetTimer()
	driveActPath(m, t, b.N, scratch)
}

func BenchmarkActPathPARA(b *testing.B)      { benchActPath(b, "PARA", false) }
func BenchmarkActPathTWiCe(b *testing.B)     { benchActPath(b, "TWiCe", false) }
func BenchmarkActPathCaPRoMi(b *testing.B)   { benchActPath(b, "CaPRoMi", false) }
func BenchmarkActPathLiPRoMi(b *testing.B)   { benchActPath(b, "LiPRoMi", false) }
func BenchmarkActPathLoPRoMi(b *testing.B)   { benchActPath(b, "LoPRoMi", false) }
func BenchmarkActPathLoLiPRoMi(b *testing.B) { benchActPath(b, "LoLiPRoMi", false) }

// The serial-LFSR "before" references, for explicit side-by-side runs.

func BenchmarkActPathPARASerialLFSR(b *testing.B)    { benchActPath(b, "PARA", true) }
func BenchmarkActPathLiPRoMiSerialLFSR(b *testing.B) { benchActPath(b, "LiPRoMi", true) }
