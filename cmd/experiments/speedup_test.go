package main

import (
	"context"
	"encoding/json"
	"flag"
	"runtime"
	"testing"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/sim"
)

// parallelGates arms TestParallelSpeedup. Its floors are wall-clock
// races, meaningful only on an otherwise idle multi-core host, so the
// plain `go test ./...` run (packages in parallel) never arms them; CI
// passes the flag in a job of its own at GOMAXPROCS=4.
var parallelGates = flag.Bool("parallel-gates", false, "arm TestParallelSpeedup's wall-clock speedup floors")

// The speedup floors. A parallel evaluation no faster than the serial
// one means the campaign scheduler stopped overlapping cells; a seed
// sweep under 1.8x on four cores means the runner's worker pool did.
const (
	evalMinSpeedup  = 1.0
	sweepMinSpeedup = 1.8
)

// TestParallelSpeedup times the two units of parallelism serial versus
// GOMAXPROCS-wide and requires byte-identical results and each floor:
//
//   - evaluation: every section at -seeds 2 -windows 2 -trials 5, run as
//     one merged campaign at -workers 1 and at -workers GOMAXPROCS;
//   - seed-sweep: 4×GOMAXPROCS PARA seeds at -windows 8 through
//     Runner.RunSeeds at one worker and at GOMAXPROCS.
func TestParallelSpeedup(t *testing.T) {
	if !*parallelGates {
		t.Skip("wall-clock speedup floors; arm with -parallel-gates")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("%d CPU: a parallel run cannot overlap work, so no speedup can be measured", runtime.NumCPU())
	}
	par := runtime.GOMAXPROCS(0)
	t.Logf("cpus=%d gomaxprocs=%d", runtime.NumCPU(), par)

	t.Run("evaluation", func(t *testing.T) {
		ev := campaign.DefaultEval()
		ev.SeedsPerPoint, ev.Base.Windows, ev.Trials = 2, 2, 5
		run := func(workers int) (string, time.Duration) {
			a, buf := newTestApp(ev, workers)
			start := time.Now()
			if err := a.runSections(context.Background(), sectionNames()); err != nil {
				t.Fatal(err)
			}
			return buf.String(), time.Since(start)
		}
		serial, serialDur := run(1)
		parallel, parDur := run(par)
		checkSpeedup(t, serial == parallel, serialDur, parDur, par, evalMinSpeedup)
	})

	t.Run("seed-sweep", func(t *testing.T) {
		cfg := campaign.DefaultEval().Base
		cfg.Windows = 8
		seeds := sim.Seeds(1, 4*par)
		sweep := func(workers int) ([]byte, time.Duration) {
			r := sim.NewRunner()
			r.Config.Workers = workers
			start := time.Now()
			sum, runErrs, err := r.RunSeeds(context.Background(), cfg, "PARA", seeds)
			dur := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if len(runErrs) != 0 {
				t.Fatalf("%d of %d seeds failed at %d worker(s): %v", len(runErrs), len(seeds), workers, runErrs[0])
			}
			raw, err := json.Marshal(sum)
			if err != nil {
				t.Fatal(err)
			}
			return raw, dur
		}
		serial, serialDur := sweep(1)
		parallel, parDur := sweep(par)
		checkSpeedup(t, string(serial) == string(parallel), serialDur, parDur, par, sweepMinSpeedup)
	})
}

// checkSpeedup logs one gate's measurement and fails it on differing
// results or a speedup below floor.
func checkSpeedup(t *testing.T, identical bool, serial, parallel time.Duration, workers int, floor float64) {
	t.Helper()
	speedup := serial.Seconds() / parallel.Seconds()
	t.Logf("serial %.2fs, parallel(%d) %.2fs, speedup %.2fx (floor %.1fx), identical %v",
		serial.Seconds(), workers, parallel.Seconds(), speedup, floor, identical)
	if !identical {
		t.Fatal("serial and parallel results differ")
	}
	if speedup < floor {
		t.Fatalf("parallel speedup %.2fx at %d worker(s) is below the %.1fx floor", speedup, workers, floor)
	}
}
