// Package hotpath is the profiling harness for the mitigation core: it
// measures the per-mitigator activation path (OnActivate plus its share
// of interval work) in isolation, against a deterministic synthetic
// access pattern — ns/act, allocs/act, acts/sec — with a "before"
// reference that reruns RNG-backed techniques on the serial bit-by-bit
// LFSR the seed implementation stepped. The benchmark under bench/
// times the whole simulation pipeline stage by stage from outside.
//
// `go run ./cmd/experiments profile` builds a Report and writes it to
// BENCH_hotpath.json; `go test -bench . ./internal/hotpath/` runs the same
// measurements under the standard benchmark driver.
package hotpath

import (
	"runtime"
	"testing"
	"time"

	"tivapromi/internal/dram"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	_ "tivapromi/internal/mitigation/all" // register all techniques
	"tivapromi/internal/obs"
	"tivapromi/internal/rng"
)

// Spec names one technique whose activation path is benchmarked.
type Spec struct {
	// Name is the mitigation registry name.
	Name string
	// RNG marks techniques whose act path draws decision entropy from the
	// LFSR; only those have a meaningful serial-LFSR "before" reference.
	RNG bool
}

// Specs returns the benchmarked techniques: the paper's probabilistic
// family plus the deterministic counter baselines whose table lookups the
// overhaul rewrote.
func Specs() []Spec {
	return []Spec{
		{Name: "PARA", RNG: true},
		{Name: "TWiCe", RNG: false},
		{Name: "CaPRoMi", RNG: true},
		{Name: "LiPRoMi", RNG: true},
		{Name: "LoPRoMi", RNG: true},
		{Name: "LoLiPRoMi", RNG: true},
	}
}

// BenchTarget is the device geometry the act-path benchmarks run against:
// the scaled simulator default, so micro-benchmark numbers correspond to
// the configuration every experiment uses.
func BenchTarget() mitigation.Target {
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

// DriveActPath feeds n synthetic activations to m and returns the number
// of commands it emitted together with the (possibly grown) scratch
// buffer. The pattern is deterministic and RNG-free: a double-sided
// hammer pair sweeps each bank while background accesses rotate over the
// row space, and every actsPerInterval*banks activations the interval
// advances (with OnRefreshInterval and window wrap), so counter pruning,
// history aging and time-varying weights are all exercised.
func DriveActPath(m mitigation.Mitigator, t mitigation.Target, n int, scratch []mitigation.Command) (int, []mitigation.Command) {
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
		// block, nothing per act. Benchmarking it here means NsPerAct
		// and the alloc gate measure the act path as deployed, obs
		// included.
		if (i+1)%1024 == 0 && obs.MetricsEnabled() {
			obs.Accesses.Add(1024)
		}
	}
	return emitted, scratch
}

// Measurement is one technique's act-path result.
type Measurement struct {
	Name         string  `json:"name"`
	NsPerAct     float64 `json:"ns_per_act"`
	AllocsPerAct float64 `json:"allocs_per_act"`
	ActsPerSec   float64 `json:"acts_per_sec"`
	// RefNsPerAct is the same path with the serial bit-by-bit LFSR the
	// seed stepped installed as the decision RNG (0 for techniques with
	// no RNG on the act path); Speedup is RefNsPerAct / NsPerAct.
	RefNsPerAct float64 `json:"ref_ns_per_act,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
	// ObsNsPerAct is the act path with the obs metrics flush enabled
	// (NsPerAct is measured with it disabled, preserving comparability
	// with committed baselines); ObsOverheadPct is the relative cost of
	// observability on the hot path, expected ≈0 since the flush is two
	// atomic adds per refresh interval.
	ObsNsPerAct    float64 `json:"obs_ns_per_act"`
	ObsOverheadPct float64 `json:"obs_overhead_pct"`
}

// benchActPath drives b.N activations through a fresh instance of the
// technique. When serial is true the decision RNG is replaced by the
// serial LFSR reference (callers ensure the technique is RandSettable).
func benchActPath(b *testing.B, name string, serial bool) {
	t := BenchTarget()
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
	_, scratch := DriveActPath(m, t, 4*actsPerInterval*t.Banks, nil)
	b.ReportAllocs()
	b.ResetTimer()
	DriveActPath(m, t, b.N, scratch)
}

// MeasureActPath benchmarks one technique's act path, including the
// serial-LFSR reference for RNG-backed techniques and the obs-overhead
// leg (metrics flush on vs off).
func MeasureActPath(s Spec) Measurement {
	wasOn := obs.MetricsEnabled()
	defer obs.SetMetricsEnabled(wasOn)

	// NsPerAct with the metrics flush off: the historical measurement,
	// directly comparable with baselines committed before obs existed.
	obs.SetMetricsEnabled(false)
	r := testing.Benchmark(func(b *testing.B) { benchActPath(b, s.Name, false) })
	ns := float64(r.NsPerOp())
	if ns <= 0 {
		ns = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	m := Measurement{
		Name:     s.Name,
		NsPerAct: ns,
		// AllocsPerOp truncates like the `go test -bench` display; stray
		// sub-1-per-run runtime allocations inside the timed region do not
		// count (TestActPathAllocFree is the strict zero gate).
		AllocsPerAct: float64(r.AllocsPerOp()),
	}
	if ns > 0 {
		m.ActsPerSec = 1e9 / ns
	}
	if s.RNG {
		ref := testing.Benchmark(func(b *testing.B) { benchActPath(b, s.Name, true) })
		m.RefNsPerAct = float64(ref.NsPerOp())
		if m.NsPerAct > 0 {
			m.Speedup = m.RefNsPerAct / m.NsPerAct
		}
	}

	// The same path with the sampled metrics flush on — the deployed
	// configuration. The delta is the observable cost of observability.
	obs.SetMetricsEnabled(true)
	or := testing.Benchmark(func(b *testing.B) { benchActPath(b, s.Name, false) })
	m.ObsNsPerAct = float64(or.NsPerOp())
	if m.ObsNsPerAct <= 0 {
		m.ObsNsPerAct = float64(or.T.Nanoseconds()) / float64(or.N)
	}
	if m.NsPerAct > 0 {
		m.ObsOverheadPct = 100 * (m.ObsNsPerAct - m.NsPerAct) / m.NsPerAct
	}
	return m
}

// Report is the BENCH_hotpath.json payload.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	// AccessesPerInterval is the count-based refresh quantum of the
	// scaled configuration BenchTarget models (memctrl.AccessesPerInterval).
	AccessesPerInterval int           `json:"accesses_per_interval"`
	ActPath             []Measurement `json:"act_path"`
}

// BuildReport runs every act-path measurement.
func BuildReport() Report {
	rep := Report{
		GeneratedAt:         time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:          runtime.GOMAXPROCS(0),
		NumCPU:              runtime.NumCPU(),
		AccessesPerInterval: memctrl.AccessesPerInterval(dram.ScaledParams()),
	}
	for _, s := range Specs() {
		rep.ActPath = append(rep.ActPath, MeasureActPath(s))
	}
	return rep
}
