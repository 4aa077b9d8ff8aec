package report

import (
	"testing"

	"tivapromi/internal/mitigation"
)

// TestPaperScaleSizingAllocs: sizing every registered technique at
// paper scale, as fig4 and extensions do on every render, is closed
// form and allocates nothing (building the instances allocated ~9 MiB
// for the whole device, weight LUTs and CRA counters included).
func TestPaperScaleSizingAllocs(t *testing.T) {
	names := mitigation.Names()
	allocs := testing.AllocsPerRun(10, func() {
		for _, name := range names {
			if _, err := mitigation.TableBytes(name, paperTarget()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("sizing %d techniques allocated %.0f times, want 0", len(names), allocs)
	}
}
