package faults_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"tivapromi/internal/faults"
	"tivapromi/internal/memctrl"
	"tivapromi/internal/mitigation"
	_ "tivapromi/internal/mitigation/all"
	"tivapromi/internal/rng"
)

// target is a small geometry so tests stay fast.
func target() mitigation.Target {
	return mitigation.Target{Banks: 2, RowsPerBank: 1024, RefInt: 512, FlipThreshold: 4096}
}

func TestParseModelRoundTrip(t *testing.T) {
	for _, m := range append([]faults.Model{faults.None}, faults.Models()...) {
		got, err := faults.ParseModel(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := faults.ParseModel("meteor-strike"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if len(faults.Models()) < 4 {
		t.Fatalf("only %d fault models, the degradation table needs >= 4", len(faults.Models()))
	}
}

func TestPlanValidateAndActive(t *testing.T) {
	if (faults.Plan{}).Active() {
		t.Fatal("zero plan active")
	}
	if !(faults.Plan{Model: faults.StateSEU, Rate: 0.1}).Active() {
		t.Fatal("armed plan inactive")
	}
	if err := (faults.Plan{Model: faults.StateSEU, Rate: 2}).Validate(); err == nil {
		t.Fatal("rate 2 accepted")
	}
	if err := (faults.Plan{Model: faults.StateSEU, Rate: -0.5}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
	if err := (faults.Plan{Model: faults.WeakCells, Rate: 0.5, Seed: 3}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// drive pushes a deterministic activation stream through a mitigation and
// returns every emitted command.
func drive(m mitigation.Mitigator, seed uint64, intervals int) []mitigation.Command {
	tg := target()
	src := rng.NewXorShift64Star(seed)
	var out []mitigation.Command
	var cmds []mitigation.Command
	for iv := 0; iv < intervals; iv++ {
		if iv%tg.RefInt == 0 {
			m.OnNewWindow()
		}
		for a := 0; a < 16; a++ {
			bank := rng.Intn(src, tg.Banks)
			row := rng.Intn(src, tg.RowsPerBank)
			cmds = m.OnActivate(bank, row, iv, cmds[:0])
			out = append(out, cmds...)
		}
		cmds = m.OnRefreshInterval(iv, cmds[:0])
		out = append(out, cmds...)
	}
	return out
}

func TestHarnessDeterministic(t *testing.T) {
	// Same plan + same stream ⇒ bit-identical command sequence and
	// injection count, for every registered technique.
	for _, name := range mitigation.Names() {
		plan := faults.Plan{Model: faults.StateSEU, Rate: 0.2, Seed: 99}
		factory, err := mitigation.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		a := faults.Wrap(factory(target(), 7), plan)
		b := faults.Wrap(factory(target(), 7), plan)
		ca, cb := drive(a, 13, 64), drive(b, 13, 64)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("%s: corrupted runs diverged (%d vs %d commands)", name, len(ca), len(cb))
		}
		if a.Injected != b.Injected {
			t.Fatalf("%s: injection counts diverged: %d vs %d", name, a.Injected, b.Injected)
		}
	}
}

func TestHarnessResetReplays(t *testing.T) {
	plan := faults.Plan{Model: faults.StateSEU, Rate: 0.3, Seed: 5}
	factory, err := mitigation.Lookup("LiPRoMi")
	if err != nil {
		t.Fatal(err)
	}
	h := faults.Wrap(factory(target(), 3), plan)
	first := drive(h, 21, 64)
	inj := h.Injected
	h.Reset()
	if h.Injected != 0 {
		t.Fatal("Reset did not clear the injection counter")
	}
	second := drive(h, 21, 64)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("reset harness did not replay bit-identically")
	}
	if h.Injected != inj {
		t.Fatalf("replayed injection count %d, want %d", h.Injected, inj)
	}
}

func TestHarnessInjectsState(t *testing.T) {
	// Techniques with SRAM state must actually receive upsets at a high
	// rate; the count is the observability hook the sweep reports.
	for _, name := range []string{"LiPRoMi", "CaPRoMi", "CRA"} {
		factory, err := mitigation.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		h := faults.Wrap(factory(target(), 3), faults.Plan{Model: faults.StateSEU, Rate: 1, Seed: 1})
		drive(h, 17, 64)
		if h.Injected == 0 {
			t.Errorf("%s: no state faults landed at rate 1", name)
		}
	}
}

func TestHarnessStuckRNGSuppressesPARA(t *testing.T) {
	// The Loaded Dice non-selection scenario: a stuck-at-ones LFSR makes
	// PARA emit nothing, while the healthy instance triggers.
	factory, err := mitigation.Lookup("PARA")
	if err != nil {
		t.Fatal(err)
	}
	healthy := factory(target(), 3)
	if len(drive(healthy, 11, 256)) == 0 {
		t.Fatal("healthy PARA never triggered; test stream too short")
	}
	stuck := faults.Wrap(factory(target(), 3), faults.Plan{Model: faults.StuckRNG, Rate: 1, Seed: 1})
	if got := drive(stuck, 11, 256); len(got) != 0 {
		t.Fatalf("stuck-RNG PARA still emitted %d commands", len(got))
	}
	// Reset must keep the fault installed: the campaign persists across
	// windows, matching how a real stuck register behaves.
	stuck.Reset()
	if got := drive(stuck, 11, 256); len(got) != 0 {
		t.Fatalf("stuck-RNG PARA recovered after Reset: %d commands", len(got))
	}
}

func TestHarnessInertWithoutPlan(t *testing.T) {
	factory, err := mitigation.Lookup("LoPRoMi")
	if err != nil {
		t.Fatal(err)
	}
	plain := factory(target(), 9)
	wrapped := faults.Wrap(factory(target(), 9), faults.Plan{})
	if !reflect.DeepEqual(drive(plain, 31, 64), drive(wrapped, 31, 64)) {
		t.Fatal("inactive harness perturbed the technique")
	}
	if wrapped.Name() != plain.Name() {
		t.Fatal("harness does not delegate Name")
	}
	if wrapped.TableBytesPerBank() != plain.TableBytesPerBank() {
		t.Fatal("harness does not delegate TableBytesPerBank")
	}
	if wrapped.Inner() == nil {
		t.Fatal("Inner is nil")
	}
}

func TestCommandFilter(t *testing.T) {
	if faults.CommandFilter(faults.Plan{Model: faults.StateSEU, Rate: 1}) != nil {
		t.Fatal("state plan produced a command filter")
	}
	f := faults.CommandFilter(faults.Plan{Model: faults.DropActN, Rate: 0.5, Seed: 4})
	if f == nil {
		t.Fatal("drop plan produced no filter")
	}
	g := faults.CommandFilter(faults.Plan{Model: faults.DropActN, Rate: 0.5, Seed: 4})
	var cmd mitigation.Command
	same := true
	dropped := 0
	for i := 0; i < 1000; i++ {
		a, b := f(cmd), g(cmd)
		if a != b {
			same = false
		}
		if a == memctrl.Drop {
			dropped++
		}
	}
	if !same {
		t.Fatal("equal plans produced different filter decisions")
	}
	if dropped < 400 || dropped > 600 {
		t.Fatalf("rate-0.5 filter dropped %d/1000", dropped)
	}
}

func TestCorruptingReader(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAA}, 4096)

	// Rate 0: transparent.
	clean, err := io.ReadAll(faults.NewCorruptingReader(bytes.NewReader(payload), 0, 1))
	if err != nil || !bytes.Equal(clean, payload) {
		t.Fatalf("rate-0 reader altered the stream (err=%v)", err)
	}

	// Rate 1: every byte differs by exactly one bit.
	cr := faults.NewCorruptingReader(bytes.NewReader(payload), 1, 1)
	dirty, err := io.ReadAll(cr)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Flipped != uint64(len(payload)) {
		t.Fatalf("Flipped = %d, want %d", cr.Flipped, len(payload))
	}
	for i := range dirty {
		x := dirty[i] ^ payload[i]
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("byte %d: xor %#x is not a single bit", i, x)
		}
	}

	// Determinism: same seed, same corruption.
	again, _ := io.ReadAll(faults.NewCorruptingReader(bytes.NewReader(payload), 1, 1))
	if !bytes.Equal(dirty, again) {
		t.Fatal("corruption not reproducible from seed")
	}
	other, _ := io.ReadAll(faults.NewCorruptingReader(bytes.NewReader(payload), 1, 2))
	if bytes.Equal(dirty, other) {
		t.Fatal("different seeds produced identical corruption")
	}
}

// TestCommandFaultWithinReplaysTheFilter: for command-path plans, the
// first command CommandFilter faults is command n exactly when
// CommandFaultWithin(plan, n) is the first true answer; every other
// model faults nothing.
func TestCommandFaultWithinReplaysTheFilter(t *testing.T) {
	for _, plan := range []faults.Plan{
		{Model: faults.DropActN, Rate: 0.01, Seed: 4},
		{Model: faults.DelayActN, Rate: 0.05, Seed: 9},
		{Model: faults.DropActN, Rate: 1e-4, Seed: 1},
	} {
		f := faults.CommandFilter(plan)
		first := uint64(0)
		for n := uint64(1); n < 1_000_000 && first == 0; n++ {
			if f(mitigation.Command{}) != memctrl.Deliver {
				first = n
			}
		}
		if first == 0 {
			t.Fatalf("%+v: no command faulted", plan)
		}
		if faults.CommandFaultWithin(plan, first-1) || !faults.CommandFaultWithin(plan, first) {
			t.Errorf("%+v: filter faults command %d first, CommandFaultWithin(%d, %d) = %v, %v",
				plan, first, first-1, first, faults.CommandFaultWithin(plan, first-1), faults.CommandFaultWithin(plan, first))
		}
	}
	for _, plan := range []faults.Plan{
		{Model: faults.DropActN, Rate: 0, Seed: 4},
		{Model: faults.StateSEU, Rate: 1, Seed: 4},
		{Model: faults.WeakCells, Rate: 1, Seed: 4},
	} {
		if faults.CommandFaultWithin(plan, 1000) {
			t.Errorf("%+v faults a command", plan)
		}
	}
}
