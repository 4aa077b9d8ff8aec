// Package chaostest is the crash torture harness: three protocols over
// one kill/restart/compare kernel, each holding a real system to the
// same standard — whatever crashed, the paper's report comes out byte
// for byte as an undisturbed serial run renders it.
//
//   - Run kills a live campaign at checkpoint-commit boundaries under
//     injected write faults, corrupts the checkpoint between cycles, and
//     resumes (campaign.go).
//   - RunServe kills a campaign server under injected write faults,
//     restarts it on the surviving shared cache, and demands converged
//     resubmissions, load shedding and a clean drain (serve.go).
//   - RunServeChaos powers off a journaled server, tears its journal
//     tail, and demands the restarted server remember every accepted job
//     (servechaos.go).
//
// The kernel is what the protocols share: one kill switch on the
// fault-injecting filesystem of internal/iofault (arm), one runner for a
// life that ends in that kill (life), one golden renderer (render), one
// HTTP client (client.go), and one post-mortem. The whole schedule —
// fault draws, kill ordinals, corruption offsets — derives from one
// master seed, so every torture run is reproducible from its seed.
package chaostest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/dram"
	"tivapromi/internal/iofault"
	"tivapromi/internal/serve"
)

// Config tunes one torture run of any protocol.
type Config struct {
	// Seed drives the whole torture schedule: fault draws, kill commit
	// ordinals, and corruption offsets.
	Seed uint64
	// Workers bounds simulation concurrency: the campaign's (0 =
	// GOMAXPROCS) or the server's shared pool (≤ 0 means 4).
	Workers int
	// Dir is the working directory for checkpoints, journals and their
	// quarantined corpses ("" = a fresh temp directory, removed
	// afterwards; any other path is created if missing and kept).
	Dir string
	// Log, when non-nil, receives the harness's progress narration.
	Log io.Writer
	// Cycles is the number of kill/resume cycles before the clean final
	// run (≤ 0 means 3). Campaign protocol only.
	Cycles int
	// Corrupt additionally flips one byte of the on-disk checkpoint
	// between cycles, exercising the salvage/quarantine path on top of
	// the injected write faults. Campaign protocol only.
	Corrupt bool
}

const (
	// tenants is the number of concurrent clients the serve protocols
	// drive, one per variant.
	tenants = 4
	// serveWorkers is the servers' shared pool when Config.Workers ≤ 0.
	serveWorkers = 4
	// heapBudget bounds the post-run heap of a serve torture run: every
	// tenant, both lives, all reports.
	heapBudget = 512 << 20
)

// sections is the campaign protocol's section mix: FSM probes (table2),
// seed sweeps plus security probes (table3), and the flooding trials —
// every checkpoint entry kind (sweep seed, probe, output) gets exercised.
var sections = []string{"table2", "table3", "flooding"}

// variants are the section sets tenant i%len(variants) submits. They
// overlap — tenants 0 and 1 share flooding cells, 1 and 3 share table2 —
// so cross-tenant dedup has guaranteed work, and tenant 0 (the SSE
// watcher's tenant) runs a campaign with real cells: table2 alone is an
// empty spec and would emit no progress events to resume.
var variants = [][]string{
	{"flooding"},
	{"table2", "flooding"},
	{"table3"},
	{"table2"},
}

// TestScaleEval is the quarter-scale evaluation the torture harness (and
// CI) runs at: the campaign's structure — cells, checkpoints, renders —
// is what is under torture, not the device physics.
func TestScaleEval() campaign.Eval {
	ev := campaign.DefaultEval()
	ev.SeedsPerPoint = 1
	ev.Base.Windows = 1
	ev.Trials = 2
	p := dram.ScaledParams()
	p.RowsPerBank /= 4
	p.RefInt /= 4
	p.FlipThreshold /= 4
	ev.Base.Params = p
	ev.Probe = p
	ev.Thresholds = []uint32{p.FlipThreshold, p.FlipThreshold / 2}
	return ev
}

// ChaosOdds is the per-operation fault mix the campaign cycles and the
// serve protocol's first life run under. The rates are deliberately
// moderate: high enough that a multi-commit life reliably draws several
// faults, low enough that checkpoints still make forward progress
// between failures.
func ChaosOdds(seed uint64) iofault.ChaosConfig {
	return iofault.ChaosConfig{
		Seed:       seed,
		TornWrite:  0.04,
		ShortWrite: 0.03,
		WriteErr:   0.03,
		NoSpace:    0.02,
		RenameFail: 0.03,
		FsyncLoss:  0.03,
		BitFlip:    0.02,
	}
}

// arm installs the kill switch on fs and returns the channel it closes
// when it fires: at the first commit whose ordinal is at least at — with
// afterFault, only once fs has injected a fault, since a life killed
// before any fault restarts clean and leaves the fault paths untested.
// With powerOff the switch powers fs off first, so the firing commit is
// the last write that survives, exactly like yanked power. (The hook
// runs without the chaos lock held, so PowerOff is safe to call there.)
func arm(fs *iofault.Chaos, at int, afterFault, powerOff bool) <-chan struct{} {
	kill := make(chan struct{})
	var once sync.Once
	fs.OnCommit = func(_ string, n int) {
		if n < at || afterFault && fs.Stats().Total() == 0 {
			return
		}
		once.Do(func() {
			if powerOff {
				fs.PowerOff()
			}
			close(kill)
		})
	}
	return kill
}

// fired reports whether kill has fired; a nil kill never does.
func fired(kill <-chan struct{}) bool {
	select {
	case <-kill:
		return true
	default:
		return false
	}
}

// life runs one life of the system under torture: every body on its own
// goroutine, under a context the end of the life cancels. The life ends
// at the kill, when every body has returned, or when ctx dies. Then stop
// (if any) tears the system down the way a crash does — no drain — and
// life waits for the bodies to exit. It reports whether the kill fired;
// a nil kill never does.
func life(ctx context.Context, kill <-chan struct{}, stop func(), bodies ...func(context.Context)) (bool, error) {
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(lctx)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-kill:
	case <-done:
	case <-ctx.Done():
	}
	killed := fired(kill)
	cancel()
	if stop != nil {
		stop()
	}
	<-done
	return killed, ctx.Err()
}

// render runs the named sections as one campaign at TestScaleEval and
// renders them as the server does (serve.BuildCampaign, campaign.Run,
// serve.RenderReport) — the same separator discipline cmd/experiments
// uses, which is what makes byte comparison meaningful. A skipped cell
// is an error: render runs on a clean filesystem.
func render(ctx context.Context, names []string, opts campaign.Options) ([]byte, error) {
	spec, ev, err := serve.BuildCampaign(serve.Request{Sections: names}, TestScaleEval(), serve.Limits{})
	if err != nil {
		return nil, err
	}
	rs, err := campaign.Run(ctx, spec, opts)
	if err != nil {
		return nil, err
	}
	if skipped := rs.Skipped(); len(skipped) > 0 {
		return nil, fmt.Errorf("%d cell(s) skipped on a clean filesystem: %v", len(skipped), skipped)
	}
	text, _, err := serve.RenderReport(ev, rs, names)
	return text, err
}

// goldens renders every variant serially and undisturbed — no server,
// no checkpoint, no faults: the bytes every served report must match.
func goldens(ctx context.Context) ([][]byte, error) {
	golden := make([][]byte, len(variants))
	for i, names := range variants {
		text, err := render(ctx, names, campaign.Options{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("chaostest: golden %s: %w", strings.Join(names, "+"), err)
		}
		golden[i] = text
	}
	return golden, nil
}

// diff returns "" when got is want, else where the two first part.
func diff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("%d vs %d bytes, first divergence at line %d: %q vs %q", len(want), len(got), i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("%d vs %d bytes sharing a common prefix", len(want), len(got))
}

// postMortem waits up to a second for serve's job and drain goroutines
// to exit, then counts those left, the quarantine corpses beside path
// (`<path>.corrupt-*`), and the heap after a GC.
func postMortem(path string) (leaked, corpses int, heap uint64) {
	leaked = serveGoroutines()
	for wait := 0; leaked > 0 && wait < 100; wait++ {
		time.Sleep(10 * time.Millisecond)
		leaked = serveGoroutines()
	}
	matches, _ := filepath.Glob(path + ".corrupt-*") // the pattern is well-formed
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return leaked, len(matches), ms.HeapAlloc
}

// serveGoroutines counts goroutines currently executing serve job or
// drain machinery.
func serveGoroutines() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "serve.(*Server).runJob") ||
			strings.Contains(g, "serve.(*Server).executeJob") ||
			strings.Contains(g, "serve.(*Server).Drain") {
			n++
		}
	}
	return n
}

// workDir resolves Config.Dir: "" is a fresh temp directory that
// cleanup removes; any other path is created if missing and kept.
func workDir(dir string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, os.MkdirAll(dir, 0o755)
	}
	tmp, err := os.MkdirTemp("", "chaostest-*")
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}

// start serves a server under torture over loopback HTTP, at
// TestScaleEval with cfg's pool and log.
func (cfg Config) start(sc serve.Config) (*serve.Server, *httptest.Server, error) {
	sc.Workers, sc.BaseEval, sc.Log = cfg.Workers, TestScaleEval(), cfg.Log
	if sc.Workers <= 0 {
		sc.Workers = serveWorkers
	}
	srv, err := serve.New(sc)
	if err != nil {
		return nil, nil, err
	}
	return srv, httptest.NewServer(srv.Handler()), nil
}

// logf writes one narration line when a log sink is configured.
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
