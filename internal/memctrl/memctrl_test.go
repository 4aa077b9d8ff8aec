package memctrl

import (
	"testing"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
	"tivapromi/internal/mitigation/cra"
	"tivapromi/internal/workload"
)

func testParams() dram.Params {
	p := dram.ScaledParams()
	p.Banks = 2
	p.RowsPerBank = 4096
	p.RefInt = 256
	return p
}

func newCtl(t *testing.T, mit mitigation.Mitigator) *Controller {
	t.Helper()
	dev, err := dram.New(testParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig(), dev, mit)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	dev, _ := dram.New(testParams(), nil)
	for _, cfg := range []Config{
		{RowHitNs: 0, RowMissNs: 45, PendingCap: 8},
		{RowHitNs: 15, RowMissNs: 0, PendingCap: 8},
		{RowHitNs: 15, RowMissNs: 45, PendingCap: 0},
	} {
		if _, err := New(cfg, dev, nil); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRowBufferHitsAndMisses(t *testing.T) {
	c := newCtl(t, nil)
	c.AccessRow(0, 100, false) // miss (cold)
	c.AccessRow(0, 100, false) // hit
	c.AccessRow(0, 100, true)  // hit
	c.AccessRow(0, 200, false) // miss (conflict)
	c.AccessRow(1, 100, false) // miss (other bank cold)
	s := c.Stats()
	if s.RowMisses != 3 || s.RowHits != 2 {
		t.Fatalf("hits/misses = %d/%d, want 2/3", s.RowHits, s.RowMisses)
	}
	// Only misses activate.
	if got := c.Device().Stats().Activates; got != 3 {
		t.Fatalf("device activations = %d, want 3", got)
	}
	if c.OpenRow(0) != 200 || c.OpenRow(1) != 100 {
		t.Fatalf("open rows = %d/%d", c.OpenRow(0), c.OpenRow(1))
	}
}

func TestTimeAdvancesAndRefreshFires(t *testing.T) {
	c := newCtl(t, nil)
	p := testParams()
	// Row misses cost 45 ns; one refresh interval is 7800 ns, so the
	// first boundary fires during the 174th access.
	for i := 0; i < 200; i++ {
		c.AccessRow(0, i%2*100, false) // alternate rows: all misses
	}
	if c.Device().Interval() == 0 {
		t.Fatal("no refresh interval fired in 9 µs of traffic")
	}
	if c.TimeNs() < 200*45 {
		t.Fatal("clock did not advance by the service times")
	}
	_ = p
}

func TestRefreshClosesRows(t *testing.T) {
	c := newCtl(t, nil)
	c.AccessRow(0, 100, false)
	if c.OpenRow(0) != 100 {
		t.Fatal("setup failed")
	}
	// Push time across the boundary with row hits.
	for c.Device().Interval() == 0 {
		c.AccessRow(0, 100, false)
	}
	if c.OpenRow(0) != -1 {
		t.Fatal("refresh left a row open")
	}
}

func TestMitigationSeesActivationsNotHits(t *testing.T) {
	rec := &recorder{}
	c := newCtl(t, rec)
	c.AccessRow(0, 100, false)
	c.AccessRow(0, 100, false)
	c.AccessRow(0, 101, false)
	if rec.acts != 2 {
		t.Fatalf("mitigation observed %d acts, want 2 (row hits invisible)", rec.acts)
	}
}

func TestMitigationCommandsExecute(t *testing.T) {
	// CRA with threshold 10: the 10th activation of a row issues act_n.
	mit := cra.New(2, 4096, 10)
	c := newCtl(t, mit)
	for i := 0; i < 10; i++ {
		c.AccessRow(0, 100, false)
		c.AccessRow(0, 200, false) // force row conflicts
	}
	s := c.Stats()
	if s.ActN != 2 {
		t.Fatalf("ActN commands = %d, want 2 (both hammered rows)", s.ActN)
	}
	d := c.Device().Stats()
	if d.NeighborActs != 4 {
		t.Fatalf("neighbor activations = %d, want 4", d.NeighborActs)
	}
	if c.ExtraActivations() != 4 {
		t.Fatalf("ExtraActivations = %d", c.ExtraActivations())
	}
	// act_n precharges the bank.
	if c.OpenRow(0) != -1 {
		t.Fatal("maintenance command left row open")
	}
}

func TestRefreshIntervalCallsMitigation(t *testing.T) {
	rec := &recorder{}
	c := newCtl(t, rec)
	for c.Device().Interval() < 3 {
		c.AccessRow(0, 0, false)
	}
	if rec.refs != 3 {
		t.Fatalf("mitigation observed %d refresh intervals, want 3", rec.refs)
	}
}

func TestNewWindowNotification(t *testing.T) {
	rec := &recorder{}
	c := newCtl(t, rec)
	p := testParams()
	c.RunIntervals(p.RefInt+1, func() (int, int, bool) { return 0, 0, false })
	if rec.windows != 1 {
		t.Fatalf("windows = %d, want 1", rec.windows)
	}
}

func TestPendingBufferOverflowStalls(t *testing.T) {
	// A mitigation that floods commands: the buffer must not drop any.
	flood := &flooder{n: 20}
	dev, _ := dram.New(testParams(), nil)
	cfg := DefaultConfig()
	cfg.PendingCap = 4
	c, err := New(cfg, dev, flood)
	if err != nil {
		t.Fatal(err)
	}
	c.AccessRow(0, 100, false)
	s := c.Stats()
	if s.Overflows == 0 {
		t.Fatal("no overflow recorded")
	}
	if s.ActN != 20 {
		t.Fatalf("executed %d commands, want all 20", s.ActN)
	}
	if s.PendingPeak != 4 {
		t.Fatalf("pending peak = %d, want cap 4", s.PendingPeak)
	}
}

func TestAttackWithoutMitigationFlips(t *testing.T) {
	p := testParams()
	p.FlipThreshold = 2000 // keep the test fast
	dev, _ := dram.New(p, nil)
	c, _ := New(DefaultConfig(), dev, nil)
	att, err := workload.NewAttacker(workload.AttackerConfig{
		TargetBanks: []int{0}, RowsPerBank: p.RowsPerBank,
		MinAggressors: 2, MaxAggressors: 2, PlannedAccesses: 1 << 40, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		a := att.Next()
		c.AccessRow(a.Bank, a.Row, a.Write)
	}
	if len(dev.Flips()) == 0 {
		t.Fatal("unmitigated hammering produced no flips")
	}
}

func TestAttackWithCRADoesNotFlip(t *testing.T) {
	p := testParams()
	p.FlipThreshold = 2000
	dev, _ := dram.New(p, nil)
	c, _ := New(DefaultConfig(), dev, cra.New(p.Banks, p.RowsPerBank, 500))
	att, err := workload.NewAttacker(workload.AttackerConfig{
		TargetBanks: []int{0}, RowsPerBank: p.RowsPerBank,
		MinAggressors: 2, MaxAggressors: 2, PlannedAccesses: 1 << 40, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		a := att.Next()
		c.AccessRow(a.Bank, a.Row, a.Write)
	}
	if len(dev.Flips()) != 0 {
		t.Fatalf("CRA-protected system flipped %d rows", len(dev.Flips()))
	}
}

func TestClosedPagePolicy(t *testing.T) {
	dev, _ := dram.New(testParams(), nil)
	cfg := DefaultConfig()
	cfg.ClosedPage = true
	c, err := New(cfg, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated accesses to one row: under closed page, every access is an
	// activation — a single hammered address suffices for an attack.
	for i := 0; i < 10; i++ {
		c.AccessRow(0, 100, false)
	}
	if got := dev.Stats().Activates; got != 10 {
		t.Fatalf("closed page produced %d activations from 10 accesses", got)
	}
	if c.Stats().RowHits != 0 {
		t.Fatal("closed page recorded row hits")
	}
}

// recorder is a Mitigator that counts callbacks.
type recorder struct {
	acts, refs, windows int
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) OnActivate(_, _, _ int, cmds []mitigation.Command) []mitigation.Command {
	r.acts++
	return cmds
}
func (r *recorder) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	r.refs++
	return cmds
}
func (r *recorder) OnNewWindow()           { r.windows++ }
func (r *recorder) Reset()                 { *r = recorder{} }
func (r *recorder) TableBytesPerBank() int { return 0 }

// flooder emits n ActN commands on every activation.
type flooder struct{ n int }

func (f *flooder) Name() string { return "flooder" }
func (f *flooder) OnActivate(bank, row, _ int, cmds []mitigation.Command) []mitigation.Command {
	for i := 0; i < f.n; i++ {
		cmds = append(cmds, mitigation.Command{Kind: mitigation.ActN, Bank: bank, Row: row})
	}
	return cmds
}
func (f *flooder) OnRefreshInterval(_ int, cmds []mitigation.Command) []mitigation.Command {
	return cmds
}
func (f *flooder) OnNewWindow()           {}
func (f *flooder) Reset()                 {}
func (f *flooder) TableBytesPerBank() int { return 0 }
