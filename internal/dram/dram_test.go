package dram

import (
	"math"
	"testing"
	"testing/quick"

	"tivapromi/internal/rng"
)

func testParams() Params {
	return Params{
		Banks:         2,
		RowsPerBank:   256,
		RefInt:        32, // 8 rows per interval
		FlipThreshold: 100,
		TRCNs:         45,
		TRefIntNs:     7800,
		TRFCNs:        350,
		IOFreqGHz:     1.2,
		RowBytes:      8192,
		MaxActsPerRI:  165,
	}
}

func mustDevice(t *testing.T, p Params, pol RefreshPolicy) *Device {
	t.Helper()
	d, err := New(p, pol)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Banks = 0 },
		func(p *Params) { p.RowsPerBank = 1 },
		func(p *Params) { p.RefInt = 0 },
		func(p *Params) { p.RowsPerBank = 100 }, // not a multiple of RefInt
		func(p *Params) { p.FlipThreshold = 0 },
		func(p *Params) { p.TRCNs = math.Inf(1) },
		func(p *Params) { p.TRefIntNs = math.NaN() },
		func(p *Params) { p.TRFCNs = math.Inf(-1) },
		func(p *Params) { p.IOFreqGHz = math.NaN() },
	}
	for i, mutate := range cases {
		p := testParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestPaperParamsDerived(t *testing.T) {
	p := PaperParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.RowsPerInterval(); got != 16 {
		t.Errorf("RowsPerInterval = %d, want 16", got)
	}
	if got := p.ActCycleBudget(); got != 54 {
		t.Errorf("ActCycleBudget = %d, want 54 (45 ns at 1.2 GHz)", got)
	}
	if got := p.RefCycleBudget(); got != 420 {
		t.Errorf("RefCycleBudget = %d, want 420 (350 ns at 1.2 GHz)", got)
	}
	if got := p.RefreshIntervalOf(0); got != 0 {
		t.Errorf("fr(0) = %d", got)
	}
	if got := p.RefreshIntervalOf(16); got != 1 {
		t.Errorf("fr(16) = %d, want 1", got)
	}
	if got := p.RefreshIntervalOf(p.RowsPerBank - 1); got != p.RefInt-1 {
		t.Errorf("fr(last) = %d, want %d", got, p.RefInt-1)
	}
}

func TestActivationDisturbsBothNeighbors(t *testing.T) {
	d := mustDevice(t, testParams(), nil)
	d.Activate(0, 10)
	if d.Disturbance(0, 9) != 1 || d.Disturbance(0, 11) != 1 {
		t.Fatalf("neighbors not disturbed: %d, %d", d.Disturbance(0, 9), d.Disturbance(0, 11))
	}
	if d.Disturbance(0, 10) != 0 {
		t.Fatal("activated row disturbed itself")
	}
	// Other bank untouched.
	if d.Disturbance(1, 9) != 0 {
		t.Fatal("activation leaked across banks")
	}
}

func TestEdgeRowsHaveOneNeighbor(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	d.Activate(0, 0)
	if d.Disturbance(0, 1) != 1 {
		t.Fatal("row 0 did not disturb row 1")
	}
	d.Activate(0, p.RowsPerBank-1)
	if d.Disturbance(0, p.RowsPerBank-2) != 1 {
		t.Fatal("last row did not disturb its lower neighbor")
	}
}

func TestActivationRestoresOwnRow(t *testing.T) {
	d := mustDevice(t, testParams(), nil)
	for i := 0; i < 50; i++ {
		d.Activate(0, 10) // disturbs 9 and 11
	}
	if d.Disturbance(0, 11) != 50 {
		t.Fatalf("disturbance = %d, want 50", d.Disturbance(0, 11))
	}
	d.Activate(0, 11) // victim activated: restored
	if d.Disturbance(0, 11) != 0 {
		t.Fatal("activation did not restore the row")
	}
	// ...but it disturbed ITS neighbors (10 and 12).
	if d.Disturbance(0, 12) != 1 {
		t.Fatal("restoring activation did not disturb row 12")
	}
}

func TestFlipAtThreshold(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	for i := uint32(0); i < p.FlipThreshold-1; i++ {
		d.Activate(0, 20)
	}
	if len(d.Flips()) != 0 {
		t.Fatal("flip before threshold")
	}
	d.Activate(0, 20)
	flips := d.Flips()
	if len(flips) != 2 { // rows 19 and 21 both cross together
		t.Fatalf("flips = %d, want 2", len(flips))
	}
	for _, f := range flips {
		if f.Bank != 0 || (f.Row != 19 && f.Row != 21) {
			t.Fatalf("unexpected flip %+v", f)
		}
	}
	// Continued hammering in the same window reports no duplicate events.
	d.Activate(0, 20)
	if len(d.Flips()) != 2 {
		t.Fatal("duplicate flip reported within one window")
	}
}

func TestDoubleSidedSumsAggressors(t *testing.T) {
	// The paper's threshold is on the SUM of both aggressor activations.
	p := testParams()
	d := mustDevice(t, p, nil)
	for i := uint32(0); i < p.FlipThreshold/2; i++ {
		d.Activate(0, 19) // victim 20 from below
		d.Activate(0, 21) // victim 20 from above
	}
	found := false
	for _, f := range d.Flips() {
		if f.Row == 20 {
			found = true
		}
	}
	if !found {
		t.Fatal("double-sided attack with combined threshold activations did not flip")
	}
}

func TestActNRestoresBothVictims(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	for i := 0; i < 50; i++ {
		d.Activate(0, 20)
	}
	d.ActivateNeighbors(0, 20)
	if d.Disturbance(0, 19) != 0 || d.Disturbance(0, 21) != 0 {
		t.Fatalf("act_n did not restore victims: %d, %d",
			d.Disturbance(0, 19), d.Disturbance(0, 21))
	}
	// act_n activations disturb the next ring (rows 18 and 22) and the
	// aggressor row 20 itself (twice: once from 19, once from 21).
	if d.Disturbance(0, 18) != 1 || d.Disturbance(0, 22) != 1 {
		t.Fatal("act_n activations did not propagate disturbance outward")
	}
	if d.Disturbance(0, 20) != 2 {
		t.Fatalf("aggressor disturbance after act_n = %d, want 2", d.Disturbance(0, 20))
	}
	if d.Stats().NeighborActs != 2 {
		t.Fatalf("NeighborActs = %d, want 2", d.Stats().NeighborActs)
	}
}

func TestAutoRefreshClearsDisturbance(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	// Rows 0..7 are refreshed in interval 0 under the neighbor policy.
	for i := 0; i < 30; i++ {
		d.Activate(0, 4)
	}
	if d.Disturbance(0, 3) != 30 {
		t.Fatal("setup failed")
	}
	rows := d.AdvanceInterval()
	if len(rows) != p.RowsPerInterval() {
		t.Fatalf("refreshed %d rows, want %d", len(rows), p.RowsPerInterval())
	}
	if d.Disturbance(0, 3) != 0 || d.Disturbance(0, 5) != 0 {
		t.Fatal("auto refresh did not clear disturbance of refreshed rows")
	}
	if d.Interval() != 1 {
		t.Fatalf("interval = %d, want 1", d.Interval())
	}
}

func TestWindowAccounting(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	for i := 0; i < p.RefInt; i++ {
		if d.Window() != 0 {
			t.Fatalf("window = %d during first window", d.Window())
		}
		d.AdvanceInterval()
	}
	if d.Window() != 1 || d.IntervalInWindow() != 0 {
		t.Fatalf("after one window: window=%d intv=%d", d.Window(), d.IntervalInWindow())
	}
}

func TestFlipReportedOncePerWindowButAgainNextWindow(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	hammer := func() {
		for i := uint32(0); i < p.FlipThreshold+10; i++ {
			d.Activate(0, 100)
		}
	}
	hammer()
	n1 := len(d.Flips())
	if n1 == 0 {
		t.Fatal("no flip in first window")
	}
	for i := 0; i < p.RefInt; i++ {
		d.AdvanceInterval()
	}
	hammer()
	if len(d.Flips()) <= n1 {
		t.Fatal("sustained attack not reported again in a new window")
	}
}

func TestRowRemapAffectsNeighbors(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	perm := make([]int, p.RowsPerBank)
	for i := range perm {
		perm[i] = i
	}
	// Logical 50 lives at physical 200.
	perm[50], perm[200] = 200, 50
	if err := d.SetRowRemap(perm); err != nil {
		t.Fatal(err)
	}
	d.Activate(0, 50)
	if d.Disturbance(0, 199) != 1 || d.Disturbance(0, 201) != 1 {
		t.Fatal("remapped activation did not disturb physical neighbors")
	}
	if d.Disturbance(0, 49) != 0 && d.Disturbance(0, 51) != 0 {
		// 49/51 are physical rows; logical 50's old location's neighbors
		// must be untouched.
		t.Fatal("remapped activation disturbed logical neighbors")
	}
	// act_n consults the internal mapping: it protects the real victims.
	d.ActivateNeighbors(0, 50)
	if d.Disturbance(0, 199) != 0 || d.Disturbance(0, 201) != 0 {
		t.Fatal("act_n did not restore physical victims under remap")
	}
	// RefreshRow(51) restores physical row 51 — NOT the real victim 201.
	for i := 0; i < 10; i++ {
		d.Activate(0, 50)
	}
	d.RefreshRow(0, 51)
	if d.Disturbance(0, 201) != 10 {
		t.Fatal("direct victim refresh unexpectedly found the physical victim")
	}
}

func TestSetRowRemapRejectsNonPermutation(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	bad := make([]int, p.RowsPerBank)
	if err := d.SetRowRemap(bad); err == nil { // all zeros: not a permutation
		t.Fatal("non-permutation accepted")
	}
	if err := d.SetRowRemap([]int{1, 2, 3}); err == nil {
		t.Fatal("short remap accepted")
	}
}

func TestAddressBoundsPanic(t *testing.T) {
	d := mustDevice(t, testParams(), nil)
	for _, fn := range []func(){
		func() { d.Activate(-1, 0) },
		func() { d.Activate(0, -1) },
		func() { d.Activate(99, 0) },
		func() { d.Activate(0, 1<<20) },
		func() { d.ActivateNeighbors(0, 1<<20) },
		func() { d.RefreshRow(99, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range address did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestStatsCounting(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	for i := 0; i < 10; i++ {
		d.Activate(0, 30)
	}
	d.ActivateNeighbors(0, 30)
	d.RefreshRow(0, 31)
	d.AdvanceInterval()
	s := d.Stats()
	if s.Activates != 10 {
		t.Errorf("Activates = %d", s.Activates)
	}
	if s.NeighborActs != 2 {
		t.Errorf("NeighborActs = %d", s.NeighborActs)
	}
	if s.DirectRefreshes != 1 {
		t.Errorf("DirectRefreshes = %d", s.DirectRefreshes)
	}
	if s.Intervals != 1 {
		t.Errorf("Intervals = %d", s.Intervals)
	}
	if s.AutoRefreshes != uint64(p.RowsPerInterval()*p.Banks) {
		t.Errorf("AutoRefreshes = %d", s.AutoRefreshes)
	}
	if s.MaxActsInIntv != 10 {
		t.Errorf("MaxActsInIntv = %d", s.MaxActsInIntv)
	}
	if got := s.AvgActsPerInterval(); got != 5 { // 10 acts over 2 bank-intervals
		t.Errorf("AvgActsPerInterval = %v, want 5", got)
	}
}

func TestDisturbanceNeverNegativeAndFlipIffThreshold(t *testing.T) {
	// Property: random operation sequences keep disturbance well-formed and
	// flips are recorded exactly when a counter reaches the threshold.
	p := testParams()
	p.FlipThreshold = 8
	f := func(ops []uint16, seed uint64) bool {
		d, err := New(p, nil)
		if err != nil {
			return false
		}
		src := rng.NewXorShift64Star(seed)
		for _, op := range ops {
			row := int(op) % p.RowsPerBank
			switch rng.Intn(src, 4) {
			case 0, 1:
				d.Activate(0, row)
			case 2:
				d.ActivateNeighbors(0, row)
			case 3:
				d.AdvanceInterval()
			}
		}
		// Every recorded flip must be at or above threshold... the counter
		// keeps rising after a flip, so just re-derive: no row without a
		// flip event may be at or above the threshold.
		flipRows := map[int]bool{}
		for _, fe := range d.Flips() {
			flipRows[fe.Row] = true
		}
		for r := 0; r < p.RowsPerBank; r++ {
			if d.Disturbance(0, r) >= p.FlipThreshold && !flipRows[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDataStoreRoundTrip(t *testing.T) {
	d := mustDevice(t, testParams(), nil)
	d.EnableDataStore(1)
	secret := []byte("secret-key-material")
	d.WriteData(0, 20, 64, secret)
	got := d.ReadData(0, 20, 64, len(secret))
	if string(got) != string(secret) {
		t.Fatalf("read %q", got)
	}
	// Unwritten rows read as zeroes.
	for _, b := range d.ReadData(1, 20, 0, 16) {
		if b != 0 {
			t.Fatal("unwritten row not zero")
		}
	}
}

func TestDataStorePanicsWhenDisabled(t *testing.T) {
	d := mustDevice(t, testParams(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("write without data store accepted")
		}
	}()
	d.WriteData(0, 0, 0, []byte{1})
}

func TestFlipCorruptsStoredData(t *testing.T) {
	p := testParams()
	d := mustDevice(t, p, nil)
	d.EnableDataStore(7)
	victim := 20
	original := make([]byte, p.RowBytes)
	for i := range original {
		original[i] = byte(i)
	}
	d.WriteData(0, victim, 0, original)
	// Hammer both neighbors past the threshold.
	for i := uint32(0); i <= p.FlipThreshold; i++ {
		d.Activate(0, victim-1)
		d.Activate(0, victim+1)
	}
	if d.Corruptions() == 0 {
		t.Fatal("flip did not corrupt stored data")
	}
	after := d.ReadData(0, victim, 0, p.RowBytes)
	diff := 0
	for i := range after {
		if after[i] != original[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("stored data unchanged after flip")
	}
	// Exactly one bit per flip event (rows 19 and 21 also flipped but
	// hold no data; victim 20 flipped... victim 20 is ACTIVATED here, so
	// its disturbance resets — the corrupted rows are 19's and 21's outer
	// neighbors plus the victim only if it crossed; recount precisely:
	// corruption count equals flip events on rows that hold data.
	if d.Corruptions() > uint64(len(d.Flips())) {
		t.Fatalf("corruptions %d exceed flip events %d", d.Corruptions(), len(d.Flips()))
	}
}

func TestFlipCorruptionDeterministic(t *testing.T) {
	run := func() []byte {
		p := testParams()
		d := mustDevice(t, p, nil)
		d.EnableDataStore(99)
		buf := make([]byte, p.RowBytes)
		d.WriteData(0, 30, 0, buf)
		for i := uint32(0); i <= p.FlipThreshold; i++ {
			d.Activate(0, 29)
			d.Activate(0, 31)
		}
		return d.ReadData(0, 30, 0, p.RowBytes)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("corruption position not deterministic — Flip Feng Shui repeatability lost")
		}
	}
}
