package sim

import (
	"context"
	"fmt"
	"testing"

	"tivapromi/internal/faults"
	"tivapromi/internal/memctrl"
)

// Driver benchmarks over the standard scaled configuration, for quick
// `-bench Driver` comparisons while tuning dispatch: the whole pipeline,
// and generation alone.

func BenchmarkDriver(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Windows = 1
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCtx(ctx, cfg, "LiPRoMi"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDriverGenOnly(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Windows = 1
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DrainStream(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyProbe times one cycle-level scheduler probe per
// iteration, unprotected and under LoLiPRoMi, in ns per simulated DRAM
// cycle (a window is RefInt refresh intervals of tREFI cycles each).
func BenchmarkLatencyProbe(b *testing.B) {
	cfg := DefaultConfig()
	cycles := float64(cfg.Params.RefInt) * float64(memctrl.DDR42400().TREF)
	ctx := context.Background()
	for _, tech := range []string{"", "LoLiPRoMi"} {
		name := tech
		if name == "" {
			name = "none"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := LatencyProbeCtx(ctx, cfg, tech); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(cycles*float64(b.N)), "ns/cycle")
		})
	}
}

// BenchmarkRunGroup runs the same GroupCap members per iteration, alone
// (members=1) and as one stream-sharing group (members=GroupCap), in ns
// per member-access: the fused cost of one member's share of the
// stream. The members are four different techniques, as in a campaign's
// groups.
func BenchmarkRunGroup(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Windows = 1
	ctx := context.Background()
	accesses := float64(cfg.Windows*cfg.Params.RefInt) * float64(memctrl.AccessesPerInterval(cfg.Params))
	members := make([]Member, GroupCap)
	for i, tech := range []string{"PARA", "TWiCe", "CaPRoMi", "LoLiPRoMi"}[:GroupCap] {
		members[i] = Member{Config: cfg, Technique: tech}
	}
	for _, n := range []int{1, GroupCap} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for g := 0; g < len(members); g += n {
					if _, err := RunGroup(ctx, members[g:g+n]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(accesses*float64(len(members)*b.N)), "ns/member-access")
		})
	}
}

// BenchmarkRiders runs one LoLiPRoMi host with 3 policy mirrors, 3
// weak-cells mirrors and 6 certified drop/delay riders (the evaluation's
// fault rates) as one group, and the same 13 members live, each alone,
// in ns per member-access.
func BenchmarkRiders(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Windows = 1
	ctx := context.Background()
	accesses := float64(cfg.Windows*cfg.Params.RefInt) * float64(memctrl.AccessesPerInterval(cfg.Params))
	members := []Member{{Config: cfg, Technique: "LoLiPRoMi"}}
	add := func(mutate func(*Config)) {
		c := cfg
		mutate(&c)
		members = append(members, Member{Config: c, Technique: "LoLiPRoMi"})
	}
	for _, pol := range Policies()[1:] {
		add(func(c *Config) { c.Policy = pol })
	}
	for _, m := range []faults.Model{faults.WeakCells, faults.DropActN, faults.DelayActN} {
		for _, rate := range []float64{1e-4, 1e-3, 1e-2} {
			add(func(c *Config) { c.Fault = faults.Plan{Model: m, Rate: rate, Seed: 0xfa0175} })
		}
	}
	for _, mode := range []string{"live", "riders"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if mode == "riders" {
					if _, err := RunGroup(ctx, members); err != nil {
						b.Fatal(err)
					}
					continue
				}
				for _, m := range members {
					if _, err := RunCtx(ctx, m.Config, m.Technique); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(accesses*float64(len(members)*b.N)), "ns/member-access")
		})
	}
}
