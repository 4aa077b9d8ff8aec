package report

import (
	"runtime"
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// TestPaperScaleSizingBankIndependent pins the premise of sizing tables
// from one bank: every registered technique reports the same per-bank
// bytes for the paper's whole device as for one of its banks.
func TestPaperScaleSizingBankIndependent(t *testing.T) {
	whole := paperTarget()
	whole.Banks = dram.PaperParams().TotalBanks()
	if whole.Banks <= 1 {
		t.Fatalf("paper device has %d banks; the comparison needs several", whole.Banks)
	}
	for _, name := range mitigation.Names() {
		f, err := mitigation.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		one, all := f(paperTarget(), 1).TableBytesPerBank(), f(whole, 1).TableBytesPerBank()
		if one != all {
			t.Errorf("%s: %d B/bank sized from one bank, %d B/bank from %d banks", name, one, all, whole.Banks)
		}
	}
}

// TestPaperScaleSizingAllocs bounds what sizing every registered
// technique allocates: one bank's state, not the whole device's (which
// is ~9 MiB, mostly CRA counters).
func TestPaperScaleSizingAllocs(t *testing.T) {
	const limit = 2 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range mitigation.Names() {
		if _, err := tableBytesAtPaperScale(name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("sizing %d techniques allocated %d B, want < %d B", len(mitigation.Names()), got, limit)
	}
}
