package sim

import (
	"context"
	"testing"

	"tivapromi/internal/dram"
)

// fastConfig keeps harness tests quick: one window, small device.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Windows = 1
	return cfg
}

// shrunkenConfig is a reduced geometry that still exercises every hot-path
// structure (history tables, counters, aggressor bitset, weak cells) in a
// few milliseconds per run.
func shrunkenConfig() Config {
	cfg := DefaultConfig()
	cfg.Windows = 1
	cfg.Params.Banks = 2
	cfg.Params.RowsPerBank = 4096
	cfg.Params.RefInt = 256
	cfg.Params.FlipThreshold = 10240
	cfg.AttackBanks = []int{1}
	return cfg
}

// shardConfig widens shrunkenConfig to four banks, two of them attacked,
// so lanes with and without aggressors interleave.
func shardConfig() Config {
	cfg := shrunkenConfig()
	cfg.Params.Banks = 4
	cfg.AttackBanks = []int{1, 3}
	return cfg
}

// TestRunCtxHonorsCancellation pins that the driver notices a canceled
// context and returns its error instead of a Result.
func TestRunCtxHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, shardConfig(), "PARA"); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Windows = 0
	if bad.Validate() == nil {
		t.Fatal("zero windows accepted")
	}
	bad = DefaultConfig()
	bad.AttackShare = 1.5
	if bad.Validate() == nil {
		t.Fatal("share > 1 accepted")
	}
	bad = DefaultConfig()
	bad.AttackBanks = []int{99}
	if bad.Validate() == nil {
		t.Fatal("out-of-range attack bank accepted")
	}
}

func TestPolicyKindString(t *testing.T) {
	want := map[PolicyKind]string{
		PolicyNeighbors:     "neighbors",
		PolicyRemapped:      "neighbors-remapped",
		PolicyRandom:        "random",
		PolicyMaskedCounter: "counter+mask",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d -> %q, want %q", k, k.String(), s)
		}
	}
	if len(Policies()) != 4 {
		t.Fatal("Policies() incomplete")
	}
}

func TestUnmitigatedAttackFlips(t *testing.T) {
	// Sustained two-aggressor hammering flips within a single window.
	cfg := fastConfig()
	cfg.MinAggressors, cfg.MaxAggressors = 2, 2
	r, err := Run(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Technique != "none" {
		t.Fatalf("technique = %q", r.Technique)
	}
	if r.Flips == 0 {
		t.Fatal("unmitigated attack produced no flips; the attack substrate is broken")
	}
	if r.ExtraActs != 0 || r.OverheadPct != 0 {
		t.Fatal("unmitigated run reported mitigation activity")
	}
}

func TestEveryTechniquePreventsFlips(t *testing.T) {
	// Sustained two-aggressor hammering: dangerous enough that even the
	// counter-based techniques must act within one window.
	cfg := fastConfig()
	cfg.MinAggressors, cfg.MaxAggressors = 2, 2
	for _, name := range TechniqueNames() {
		r, err := Run(cfg, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Flips != 0 {
			t.Errorf("%s allowed %d flips", name, r.Flips)
		}
		if r.ExtraActs == 0 {
			t.Errorf("%s issued no extra activations under attack", name)
		}
	}
}

func TestRunUnknownTechnique(t *testing.T) {
	if _, err := Run(fastConfig(), "Nonsense"); err == nil {
		t.Fatal("unknown technique accepted")
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	cfg := fastConfig()
	a, err := Run(cfg, "LiPRoMi")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, "LiPRoMi")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestTraceStatisticsMatchPaper(t *testing.T) {
	// The paper reports ≈40 activations per refresh interval on average
	// and a ceiling of 165.
	r, err := Run(fastConfig(), "")
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgActsPerInterval < 25 || r.AvgActsPerInterval > 60 {
		t.Errorf("avg acts/interval = %.1f, want ≈40", r.AvgActsPerInterval)
	}
	if r.MaxActsPerInterval > 165 {
		t.Errorf("max acts/interval = %d exceeds the DDR4 ceiling", r.MaxActsPerInterval)
	}
}

func TestOverheadOrderingMatchesPaper(t *testing.T) {
	// The load-bearing shape of Table III / Fig. 4:
	// counters < TiVaPRoMi < PARA <= MRLoc < ProHit.
	cfg := fastConfig()
	cfg.Windows = 2
	overhead := map[string]float64{}
	for _, name := range TechniqueNames() {
		sum, err := RunSeeds(cfg, name, Seeds(10, 3))
		if err != nil {
			t.Fatal(err)
		}
		overhead[name] = sum.Overhead.Mean()
	}
	for _, tiva := range []string{"LiPRoMi", "LoPRoMi", "LoLiPRoMi", "CaPRoMi"} {
		if overhead[tiva] >= overhead["PARA"] {
			t.Errorf("%s overhead %.4f not below PARA %.4f", tiva, overhead[tiva], overhead["PARA"])
		}
		if overhead[tiva] <= overhead["TWiCe"] {
			t.Errorf("%s overhead %.4f below TWiCe %.4f; counters must win", tiva, overhead[tiva], overhead["TWiCe"])
		}
	}
	if overhead["ProHit"] <= overhead["PARA"] {
		t.Error("ProHit should have the highest probabilistic overhead")
	}
	if overhead["MRLoc"] < overhead["PARA"]*0.9 {
		t.Error("MRLoc overhead should be on par with or above PARA")
	}
	if overhead["LiPRoMi"] >= overhead["LoPRoMi"] {
		t.Error("linear weighting must produce fewer extra activations than logarithmic")
	}
}

func TestFPRZeroForCounters(t *testing.T) {
	cfg := fastConfig()
	for _, name := range []string{"TWiCe", "CRA"} {
		r, err := Run(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		if r.FalseActs != 0 {
			t.Errorf("%s produced %d false-positive commands", name, r.FalseActs)
		}
	}
}

func TestPARAOverheadMatchesProbability(t *testing.T) {
	// PARA's overhead is its probability by construction: ≈0.098%.
	sum, err := RunSeeds(fastConfig(), "PARA", Seeds(50, 4))
	if err != nil {
		t.Fatal(err)
	}
	m := sum.Overhead.Mean()
	if m < 0.085 || m > 0.115 {
		t.Fatalf("PARA overhead %.4f%%, want ≈0.098%%", m)
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	cfg := fastConfig()
	sum, err := RunSeeds(cfg, "PARA", Seeds(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Runs) != 3 {
		t.Fatalf("runs = %d", len(sum.Runs))
	}
	if sum.Overhead.N() != 3 {
		t.Fatalf("overhead samples = %d", sum.Overhead.N())
	}
	if sum.Technique != "PARA" {
		t.Fatalf("technique = %q", sum.Technique)
	}
	if _, err := RunSeeds(cfg, "PARA", nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	a := Seeds(1, 5)
	b := Seeds(1, 5)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Seeds not deterministic")
		}
		if seen[a[i]] {
			t.Fatal("duplicate seed")
		}
		seen[a[i]] = true
	}
}

func TestRefreshPolicyInvariance(t *testing.T) {
	// §IV: no significant change across the four refresh-address
	// policies for TiVaPRoMi.
	cfg := fastConfig()
	var base float64
	for i, pol := range Policies() {
		c := cfg
		c.Policy = pol
		sum, err := RunSeeds(c, "LoLiPRoMi", Seeds(20, 3))
		if err != nil {
			t.Fatal(err)
		}
		if sum.TotalFlips != 0 {
			t.Fatalf("policy %v: flips under LoLiPRoMi", pol)
		}
		m := sum.Overhead.Mean()
		if i == 0 {
			base = m
			continue
		}
		if m < base*0.5 || m > base*2.0 {
			t.Errorf("policy %v overhead %.4f diverges from neighbors %.4f", pol, m, base)
		}
	}
}

func TestRemappedDeviceStillProtectedByActN(t *testing.T) {
	// act_n resolves the internal mapping, so TiVaPRoMi protects a
	// remapped device.
	cfg := fastConfig()
	cfg.RemapSwaps = 32
	r, err := Run(cfg, "LoLiPRoMi")
	if err != nil {
		t.Fatal(err)
	}
	if r.Flips != 0 {
		t.Fatalf("remapped device flipped %d rows under LoLiPRoMi", r.Flips)
	}
}

func TestTargetDerivation(t *testing.T) {
	cfg := DefaultConfig()
	tgt := cfg.Target()
	if tgt.Banks != cfg.Params.Banks || tgt.RefInt != cfg.Params.RefInt ||
		tgt.RowsPerBank != cfg.Params.RowsPerBank ||
		tgt.FlipThreshold != cfg.Params.FlipThreshold {
		t.Fatalf("target %+v does not mirror params", tgt)
	}
}

func TestNoAttackNoFalsePositiveDenominator(t *testing.T) {
	// Without an attacker every extra activation is a false positive by
	// definition; the run must still work.
	cfg := fastConfig()
	cfg.AttackBanks = nil
	r, err := Run(cfg, "PARA")
	if err != nil {
		t.Fatal(err)
	}
	if r.Flips != 0 {
		t.Fatal("benign workload flipped rows")
	}
	if r.ExtraActs != r.FalseActs {
		t.Fatalf("without attacker, extra (%d) must equal false (%d)", r.ExtraActs, r.FalseActs)
	}
}

func TestPaperParamsRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke test skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Params = dram.PaperParams()
	cfg.Windows = 1
	cfg.AttackBanks = []int{1, 3}
	r, err := Run(cfg, "LoLiPRoMi")
	if err != nil {
		t.Fatal(err)
	}
	if r.Flips != 0 {
		t.Fatalf("paper-scale LoLiPRoMi flipped %d", r.Flips)
	}
}
