// Command bench is the repository's benchmark. It measures four
// workloads end to end — the paper's evaluation cold, the evaluation
// against a checkpoint with warm restarts, multi-tenant serving, and the
// simulation library called directly — and, in a separate traced pass,
// breaks each down by layer by timing calls into the layers' public
// functions. Every workload checks its outputs against a reference; a
// mismatch counts as a failed operation and makes the command exit 1.
//
// One workload, as BENCHMARK.json's command runs it (the last output line
// is JSON):
//
//	bash bench/run.sh --workload sim-direct --seed 1 --seconds 26 --trace 0
//
// Every workload, each in a fresh child process, repeated and summarized:
//
//	bash bench/run.sh -repeat 5 -trace 1 -out .bench_build/runs.json
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"tivapromi/internal/obs"
)

//go:embed golden
var goldenFS embed.FS

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 51

// buildDir holds everything a run writes, relative to the repository
// root the benchmark runs from.
const buildDir = ".bench_build"

// runEnv is what every workload gets.
type runEnv struct {
	seed         uint64
	seconds      time.Duration // how long a run measures; see rounds
	workers      int           // nproc: simulation workers, load goroutines, connections
	work         string        // scratch directory, removed after the run
	lay          *layers       // non-nil in the traced pass
	updateGolden bool
}

// measurement is what one workload run produces.
type measurement struct {
	setup     []time.Duration // each set-up repetition, wall clock
	walls     []time.Duration // each round's main pass, wall clock
	ops       []time.Duration // every unit operation's latency, pooled over rounds
	tailOps   int             // operations every run has at least; fixes the tail percentile
	opsCPU    time.Duration   // process CPU time the operations took
	passCPU   time.Duration   // process CPU time the main passes took
	accesses  uint64          // simulated in the main passes
	peakRSS   float64         // MB, when taken before work outside the main passes
	attempted int
	failures  []string
}

// cpuTime is the process's CPU time so far, user and system, over all
// its threads. The kernel leaves out time the hypervisor stole from the
// virtual CPUs, which on a shared host is most of the run-to-run noise in
// wall-clock time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *measurement) fail(format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf(format, args...))
}

// check counts one verification and records a failure unless ok.
func (m *measurement) check(ok bool, format string, args ...any) {
	m.attempted++
	if !ok {
		m.fail(format, args...)
	}
}

// rounds runs round minRounds times, then again while another round, at
// the mean length of those so far, would end within env.seconds of the
// first one's start, give or take a tenth: a half-length round should run
// twice however the host's speed moves it about the middle. A run thus
// measures about env.seconds, or minRounds rounds when those are longer.
// Each round starts from a collected heap, so a round's time and the peak
// RSS do not depend on how many rounds ran before it.
func rounds(ctx context.Context, env *runEnv, minRounds int, round func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC()
		if err := round(i); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if i+1 >= minRounds && elapsed+elapsed/time.Duration(i+1) > env.seconds+env.seconds/10 {
			return nil
		}
	}
}

// workloadDef binds a name to its run function.
type workloadDef struct {
	name string
	run  func(ctx context.Context, env *runEnv) (*measurement, error)
}

var workloads = []workloadDef{
	{"eval-cold", func(ctx context.Context, env *runEnv) (*measurement, error) {
		golden, err := os.ReadFile("experiments_output.txt")
		if err != nil {
			return nil, fmt.Errorf("eval-cold needs the reference output: %w", err)
		}
		return runEvalCold(ctx, env, coldEval(), golden)
	}},
	{"eval-durable", func(ctx context.Context, env *runEnv) (*measurement, error) {
		var golden []byte
		if !env.updateGolden {
			var err error
			if golden, err = goldenFS.ReadFile("golden/eval-durable.txt"); err != nil {
				return nil, err
			}
		}
		return runEvalDurable(ctx, env, durableEval(), golden, 100)
	}},
	{"serve-mixed", func(ctx context.Context, env *runEnv) (*measurement, error) {
		return runServeMixed(ctx, env, mixedServe())
	}},
	{"sim-direct", func(ctx context.Context, env *runEnv) (*measurement, error) {
		var golden map[string]json.RawMessage
		if env.seed == 1 && !env.updateGolden {
			raw, err := goldenFS.ReadFile("golden/sim-direct.json")
			if err != nil {
				return nil, err
			}
			if err := json.Unmarshal(raw, &golden); err != nil {
				return nil, fmt.Errorf("golden/sim-direct.json: %w", err)
			}
		}
		return runSimDirect(ctx, env, directGeoms(), golden)
	}},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// writeGolden rewrites one file of bench/golden.
func writeGolden(name string, raw []byte) error {
	return os.WriteFile(filepath.Join("bench", "golden", name), raw, 0o644)
}

func main() {
	name := flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "input seed (serve-mixed and sim-direct use it; the evaluations record it)")
	seconds := flag.Float64("seconds", 26, "measure about this many seconds of whole rounds (BENCHMARK.json's run_seconds)")
	traced := flag.Int("trace", 0, "1: traced pass, reporting the per-layer metrics and writing a Chrome trace")
	traceOut := flag.String("trace-out", "", "where the traced pass writes its Chrome trace (default "+buildDir+"/trace-<workload>.json)")
	repeat := flag.Int("repeat", 1, "without -workload: runs of each workload, alternating the order")
	out := flag.String("out", "", "without -workload: write every run and the summary here as JSON")
	baseline := flag.String("baseline", "", "without -workload: compare medians with this earlier -out file under BENCHMARK.json's bounds")
	update := flag.Bool("update-golden", false, "rewrite bench/golden from this run (seed 1) instead of checking it")
	flag.Parse()

	if *name != "" {
		os.Exit(runOne(*name, *seed, *seconds, *traced == 1, *traceOut, *update))
	}
	os.Exit(runAll(*seed, *seconds, *repeat, *traced == 1, *out, *baseline))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the last output line carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload in this process and prints its metrics, one
// `workload metric value unit` line each, then the result JSON.
func runOne(name string, seed uint64, seconds float64, traced bool, traceOut string, update bool) int {
	w, ok := lookupWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "work"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Join(buildDir, "work"), name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := &runEnv{
		seed:         seed,
		seconds:      time.Duration(seconds * float64(time.Second)),
		workers:      runtime.GOMAXPROCS(0),
		work:         work,
		updateGolden: update,
	}
	if traced {
		env.lay = newLayers()
		obs.SetTracer(obs.NewTracer())
	}
	h := currentHost()
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: cpus=%d gomaxprocs=%d %s commit %s\n",
		name, seed, h.CPUs, h.GoMaxProcs, h.GoVersion, h.Commit)
	m, err := w.run(ctx, env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}

	catalogue, values := metricsOf(m, env.lay)
	if traced {
		if traceOut == "" {
			traceOut = filepath.Join(buildDir, "trace-"+name+".json")
		}
		if err := writeTrace(traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, mt := range catalogue {
		v := values[mt.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m.check(false, "%s: %s is not finite", name, mt.name)
			v = 0
		}
		res.Metrics[mt.name] = metricValue{Value: v, Unit: mt.unit}
		fmt.Printf("%s %s %s %s\n", name, mt.name, formatValue(v), mt.unit)
	}
	res.Attempted, res.Failed = m.attempted, len(m.failures)
	res.Correct = res.Failed == 0
	for _, f := range m.failures {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", f)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d round(s), %d op(s); wall clock: round %.4g s, op p50 %.4g ms, %s %.4g ms\n",
		name, len(m.walls), len(m.ops), median(secs(m.walls)), median(ms(m.ops)), tailLabel(m.tailOps), tail(ms(m.ops), m.tailOps))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricsOf computes a run's reported metrics: the end-to-end set from
// an untraced run, the per-layer set when lay is non-nil.
func metricsOf(m *measurement, lay *layers) ([]metric, map[string]float64) {
	values := map[string]float64{}
	opCPU := float64(m.opsCPU) / float64(time.Millisecond) / float64(len(m.ops))
	if lay != nil {
		for _, mt := range perLayer {
			values[mt.name] = lay.get(mt.name)
		}
		values["wall.round_s"] = median(secs(m.walls))
		values["wall.op_ms.p50"] = median(ms(m.ops))
		values["wall.op_ms.tail"] = tail(ms(m.ops), m.tailOps)
		values["obs.traced_op_cpu_ms"] = opCPU
		return perLayer, values
	}
	values["setup_s"] = median(secs(m.setup))
	values["op_cpu_ms"] = opCPU
	values["sim_maccess_per_cpu_s"] = float64(m.accesses) / m.passCPU.Seconds() / 1e6
	values["peak_rss_mb"] = m.peakRSS
	if m.peakRSS == 0 {
		values["peak_rss_mb"] = peakRSSMB()
	}
	return endToEnd, values
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// tailLabel names the percentile op_tail_ms reports for an op count.
func tailLabel(ops int) string {
	q := tailPermille(ops)
	if q == 0 {
		return "max"
	}
	return "p" + strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", float64(q)/10), "0"), ".")
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeTrace writes the installed tracer's spans as Chrome trace JSON.
func writeTrace(path string) error {
	t := obs.CurrentTracer()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := t.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		fmt.Fprintf(os.Stderr, "bench: wrote %d trace event(s) to %s (%d dropped)\n", t.Len(), path, t.Dropped())
	}
	return werr
}

// runRecord is one child run in the -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

// summaryStat is one workload × metric over the runs.
type summaryStat struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// allReport is the -out document.
type allReport struct {
	Host     hostInfo                           `json:"host"`
	Seconds  float64                            `json:"seconds"`
	Repeat   int                                `json:"repeat"`
	Runs     []runRecord                        `json:"runs"`
	Summary  map[string]map[string]*summaryStat `json:"summary"`
	Overhead map[string]float64                 `json:"trace_overhead_pct,omitempty"`
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// buildCommit is the repository commit the binary was built from, set
// by bench/run.sh.
var buildCommit = "unknown"

func currentHost() hostInfo {
	return hostInfo{CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: buildCommit}
}

// runAll runs every workload `repeat` times, each run in a fresh child
// process, alternating the order between repetitions, and prints the
// median and quartiles of every metric.
func runAll(seed uint64, seconds float64, repeat int, traced bool, out, baseline string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := allReport{Host: currentHost(), Seconds: seconds, Repeat: repeat, Summary: map[string]map[string]*summaryStat{}}
	fmt.Printf("bench: cpus=%d gomaxprocs=%d %s commit %s\n", rep.Host.CPUs, rep.Host.GoMaxProcs, rep.Host.GoVersion, rep.Host.Commit)
	failed := false
	for r := 0; r < repeat; r++ {
		order := append([]workloadDef(nil), workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			passes := []bool{false}
			if traced {
				passes = append(passes, true)
			}
			for _, tr := range passes {
				rec, err := runChild(exe, w.name, seed+uint64(r), seconds, tr)
				if err != nil || !rec.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s (seed %d, traced %v) failed: %v\n", w.name, seed+uint64(r), tr, err)
					failed = true
				}
				if err != nil {
					continue
				}
				rep.Runs = append(rep.Runs, rec)
				addSamples(rep.Summary, rec)
			}
		}
	}
	printSummary(rep.Summary)
	if traced {
		rep.Overhead = map[string]float64{}
		for _, w := range workloads {
			s := rep.Summary[w.name]
			if s["op_cpu_ms"] != nil && s["obs.traced_op_cpu_ms"] != nil {
				rep.Overhead[w.name] = 100 * (s["obs.traced_op_cpu_ms"].Median/s["op_cpu_ms"].Median - 1)
				fmt.Printf("%s trace_overhead_pct %.2f %%\n", w.name, rep.Overhead[w.name])
			}
		}
	}
	if out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = true
		}
	}
	if baseline != "" {
		if err := compareBaseline(baseline, rep.Summary); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process and parses its result.
func runChild(exe, name string, seed uint64, seconds float64, traced bool) (runRecord, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", tr)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	rec := runRecord{Workload: name, Seed: seed, Traced: traced}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	var last string
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if jerr := json.Unmarshal([]byte(last), &rec.result); jerr != nil {
		if err == nil {
			err = fmt.Errorf("no result line: %w", jerr)
		}
		return rec, err
	}
	return rec, nil
}

func addSamples(sum map[string]map[string]*summaryStat, rec runRecord) {
	if sum[rec.Workload] == nil {
		sum[rec.Workload] = map[string]*summaryStat{}
	}
	for name, v := range rec.Metrics {
		s := sum[rec.Workload][name]
		if s == nil {
			s = &summaryStat{Unit: v.Unit}
			sum[rec.Workload][name] = s
		}
		s.Values = append(s.Values, v.Value)
		s.N = len(s.Values)
		s.Median = median(s.Values)
		if q1, _, q3, ok := quartiles(s.Values); ok {
			s.Q1, s.Q3 = q1, q3
		} else {
			s.Q1, s.Q3 = s.Median, s.Median
		}
	}
}

func printSummary(sum map[string]map[string]*summaryStat) {
	fmt.Printf("%-13s %-38s %5s %14s %14s %14s %8s\n", "workload", "metric", "n", "median", "q1", "q3", "spread")
	for _, w := range workloads {
		names := make([]string, 0, len(sum[w.name]))
		for n := range sum[w.name] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := sum[w.name][n]
			fmt.Printf("%-13s %-38s %5d %14.6g %14.6g %14.6g %7.2f%% %s\n",
				w.name, n, s.N, s.Median, s.Q1, s.Q3, 100*spread(s.Values), s.Unit)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareBaseline checks every end-to-end median against an earlier
// -out file: a median worse than the baseline's by more than the
// metric's bound is a regression. A spread wider than the bound is
// reported as unresolved rather than as a pass.
func compareBaseline(path string, cur map[string]map[string]*summaryStat) error {
	var base allReport
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &base)
	}
	if err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	var spec benchmarkSpec
	raw, err = os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var bad []string
	for _, w := range workloads {
		for _, e := range spec.EndToEnd {
			b, c := base.Summary[w.name][e.Name], cur[w.name][e.Name]
			if b == nil || c == nil {
				continue
			}
			verdict := "ok"
			switch {
			case regressed(b.Median, c.Median, e.Better, e.Bound):
				verdict = "REGRESSED"
				bad = append(bad, w.name+" "+e.Name)
			case spread(c.Values) > e.Bound || spread(b.Values) > e.Bound:
				verdict = "unresolved (spread exceeds bound)"
			}
			fmt.Printf("compare %-13s %-18s base %12.6g now %12.6g (%+.1f%%, bound %.0f%%) %s\n",
				w.name, e.Name, b.Median, c.Median, 100*(c.Median/b.Median-1), 100*e.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("regressed beyond bound: %s", strings.Join(bad, ", "))
	}
	return nil
}
