package sim

import (
	"context"
	"testing"
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
