package sim

import (
	"context"
	"testing"

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
