package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// GroupCap bounds the members of one stream-sharing group. Fused CPU
// falls with the member count, since a block is generated once for all
// members, but every member keeps its own devices and mitigation state
// live, so memory grows with it. DESIGN.md §8 records the CPU and RSS
// measurement that chose 4.
const GroupCap = 4

// SweepResult is one member's outcome of a group-seeds call.
type SweepResult struct {
	// Summary aggregates the member's completed seeds in seed order,
	// checkpointed and fresh alike.
	Summary Summary
	// RunErrors are the member's per-seed failures, ordered by seed
	// position.
	RunErrors []*RunError
	// Err is a checkpoint write failure: the member's seeds ran, but
	// their results could not be persisted.
	Err error
}

// Sweep is one prepared group-seeds call: members that share a stream
// key, swept over one seed list. NewSweep serves whatever the checkpoint
// already holds, each member under its own fingerprint; RunSeed runs one
// seed for every member still missing it; Results aggregates.
// Runner.RunGroupSeeds drives a Sweep through its worker pool, and the
// campaign scheduler drives one seed by seed in its own admission order.
type Sweep struct {
	rc      RunnerConfig
	members []Member
	seeds   []uint64
	first   []int // per position: the position of that seed's first occurrence
	pending []int // first-occurrence positions some member still needs
	fps     []string
	cks     []*Checkpoint // per member; nil bypasses the checkpoint
	done    [][]*Result   // [member][position]
	errs    [][]*RunError // [member][position]

	mu      sync.Mutex
	ckptErr []error // per member: the first checkpoint write failure
}

// NewSweep prepares members (which must share a stream key) over seeds,
// looking every (member, seed) up in the checkpoint.
func (r *Runner) NewSweep(members []Member, seeds []uint64) (*Sweep, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: no seeds")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("sim: no members")
	}
	n := len(members)
	sw := &Sweep{
		rc:      r.Config,
		members: members,
		seeds:   seeds,
		first:   make([]int, len(seeds)),
		fps:     make([]string, n),
		cks:     make([]*Checkpoint, n),
		done:    make([][]*Result, n),
		errs:    make([][]*RunError, n),
		ckptErr: make([]error, n),
	}
	firstOf := make(map[uint64]int, len(seeds))
	for i, s := range seeds {
		if _, dup := firstOf[s]; !dup {
			firstOf[s] = i
		}
		sw.first[i] = firstOf[s]
	}
	for m, mem := range members {
		sw.fps[m] = Fingerprint(mem.Config, mem.Technique, seeds)
		// A custom Factory without a FactoryLabel is invisible to the
		// fingerprint (two different closures would collide), so such
		// members bypass the checkpoint entirely — the documented Config
		// contract.
		if mem.Config.Factory == nil || mem.Config.FactoryLabel != "" {
			sw.cks[m] = r.Checkpoint
		}
		sw.done[m] = make([]*Result, len(seeds))
		sw.errs[m] = make([]*RunError, len(seeds))
		for i, s := range seeds {
			if res, ok := sw.cks[m].lookup(sw.fps[m], s); ok {
				sw.done[m][i] = &res
			}
		}
	}
	for i := range seeds {
		if sw.first[i] != i {
			continue
		}
		for m := range members {
			if sw.done[m][i] == nil {
				sw.pending = append(sw.pending, i)
				break
			}
		}
	}
	return sw, nil
}

// Pending returns the seed positions RunSeed still has to run, in seed
// order; it is empty when the checkpoint served everything.
func (sw *Sweep) Pending() []int { return append([]int(nil), sw.pending...) }

// RunSeed runs seed position i for every member still missing it and
// records each result in the checkpoint. It takes no Gate token: the
// caller admits the work. The members run as one group under one
// hardened attempt; a failed group attempt re-runs its members alone
// under the runner's per-run hardening (retries included), so one
// member's failure never costs the others their results. A hooked
// runner (SetRunFnForTest) runs every member alone. Safe for concurrent
// use with distinct positions.
func (sw *Sweep) RunSeed(ctx context.Context, i int) {
	var need []int
	var group []Member
	for m, mem := range sw.members {
		if sw.done[m][i] != nil {
			continue
		}
		mem.Config.Seed = sw.seeds[i]
		need = append(need, m)
		group = append(group, mem)
	}
	if len(group) > 1 && sw.rc.runFn == nil {
		var res []Result
		err := runOnce(ctx, sw.rc, attemptOf(group), func(c context.Context) (e error) {
			res, e = RunGroup(c, group)
			return e
		})
		switch {
		case err == nil:
			for k, m := range need {
				sw.record(m, i, res[k])
			}
			return
		case ctx.Err() != nil:
			for _, m := range need {
				sw.errs[m][i] = &RunError{Seed: sw.seeds[i], Attempts: 1, Err: err}
			}
			return
		}
	}
	run := sw.rc.runFn
	if run == nil {
		run = RunCtx
	}
	for k, m := range need {
		mem := group[k]
		var res Result
		attempts, err := runWithRetry(ctx, sw.rc, attemptOf(group[k:k+1]), func(c context.Context) (e error) {
			res, e = run(c, mem.Config, mem.Technique)
			return e
		})
		if err != nil {
			sw.errs[m][i] = &RunError{Seed: sw.seeds[i], Attempts: attempts, Err: err}
			continue
		}
		sw.record(m, i, res)
	}
}

// record stores member m's result for position i and persists it.
func (sw *Sweep) record(m, i int, res Result) {
	sw.done[m][i] = &res
	if err := sw.cks[m].record(sw.fps[m], sw.seeds[i], res); err != nil {
		sw.mu.Lock()
		if sw.ckptErr[m] == nil {
			sw.ckptErr[m] = err
		}
		sw.mu.Unlock()
	}
}

// Results aggregates every member's seeds in seed order, checkpointed
// and fresh alike, so resumed and uninterrupted sweeps emit identical
// tables. Duplicate seeds share their first occurrence's result. A
// pending seed that never ran (ctx ended first) is a RunError with zero
// attempts.
func (sw *Sweep) Results(ctx context.Context) []SweepResult {
	out := make([]SweepResult, len(sw.members))
	for m := range sw.members {
		if sw.ckptErr[m] != nil {
			out[m].Err = sw.ckptErr[m]
			continue
		}
		var completed []Result
		var failed []*RunError
		for i, s := range sw.seeds {
			f := sw.first[i]
			switch {
			case sw.done[m][i] != nil:
				completed = append(completed, *sw.done[m][i])
			case sw.done[m][f] != nil:
				completed = append(completed, *sw.done[m][f])
			case i == f && sw.errs[m][i] != nil:
				failed = append(failed, sw.errs[m][i])
			case i == f:
				err := ctx.Err()
				if err == nil {
					err = errors.New("sim: seed was never run")
				}
				failed = append(failed, &RunError{Seed: s, Attempts: 0, Err: err})
			}
		}
		out[m] = SweepResult{Summary: Summarize(completed), RunErrors: failed}
	}
	return out
}

// RunGroupSeeds runs members that share a stream key over seeds: each
// seed's members run as one group (see RunGroup), seeds in a bounded
// worker pool, each run holding one Gate token. It consults the
// checkpoint for already-completed (member, seed) pairs and records each
// newly completed one under the member's own fingerprint, so resume and
// cross-campaign dedup work per member exactly as for RunSeeds. The
// returned error is non-nil only for unusable inputs.
func (r *Runner) RunGroupSeeds(ctx context.Context, members []Member, seeds []uint64) ([]SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sw, err := r.NewSweep(members, seeds)
	if err != nil {
		return nil, err
	}
	if len(sw.pending) > 0 {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < r.Config.workers(len(sw.pending)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					if !acquireGate(ctx, r.Config.Gate) {
						continue // Results reports it as cancelled
					}
					sw.RunSeed(ctx, i)
					releaseGate(r.Config.Gate)
				}
			}()
		}
	feed:
		for _, i := range sw.pending {
			select {
			case jobs <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
	}
	return sw.Results(ctx), nil
}

// RunSeeds executes the sweep under ctx, consulting the checkpoint for
// already-completed seeds and recording each newly completed seed as it
// finishes. The summary always aggregates results in seed order —
// checkpointed and fresh alike — so resumed and uninterrupted runs emit
// identical tables. It is the one-member case of RunGroupSeeds.
func (r *Runner) RunSeeds(ctx context.Context, cfg Config, technique string, seeds []uint64) (Summary, []*RunError, error) {
	out, err := r.RunGroupSeeds(ctx, []Member{{Config: cfg, Technique: technique}}, seeds)
	switch {
	case err != nil:
		return Summary{}, nil, err
	case out[0].Err != nil:
		return Summary{}, nil, out[0].Err
	}
	return out[0].Summary, out[0].RunErrors, nil
}
