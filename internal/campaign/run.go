package campaign

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tivapromi/internal/dram"
	"tivapromi/internal/obs"
	"tivapromi/internal/sim"
)

// ErrCellSkipped marks a cell the scheduler gave up on: its circuit
// breaker tripped (BreakerAfter consecutive failures) or the campaign's
// shared retry budget ran dry. The cell's CellResult keeps the last
// underlying failure wrapped beneath this mark, so errors.Is still finds
// the root cause, and the renderer can degrade (skip the section, keep
// the rest of the report) instead of aborting.
var ErrCellSkipped = errors.New("campaign: cell skipped (retry budget exhausted or circuit breaker open)")

// Options tunes one campaign execution.
type Options struct {
	// Workers bounds the number of runs in flight across the whole
	// campaign — a seed of a stream-sharing group, or a probe — since
	// all of them share one admission gate, so concurrency never
	// multiplies. Zero means GOMAXPROCS.
	Workers int
	// Runner supplies the hardening policy (retries, deadlines, panic
	// recovery, stall watchdog) and the checkpoint. A nil Runner uses
	// sim.NewRunner() with no checkpoint.
	Runner *sim.Runner
	// OnProgress, when non-nil, receives one event per completed cell —
	// plus, when a checkpoint load was noteworthy (quarantine, salvage
	// drops, another format version), one leading Note-only event. Events are
	// delivered sequentially (never concurrently).
	OnProgress func(Progress)

	// RetryBudget is the total number of cell re-attempts the whole
	// campaign may spend (shared across cells; 0 disables cell-level
	// retries). A cell re-attempt is cheap when a checkpoint is armed:
	// completed seeds are memoized, so only the missing work re-runs.
	// Cells are re-attempted when the cell itself failed (cr.Err) or when
	// a seed stalled (sim.ErrStalled) — ordinary per-seed failures are
	// the runner's domain and are reported, not retried here.
	RetryBudget int
	// BreakerAfter is the per-cell circuit breaker: a cell that has
	// failed this many consecutive attempts is parked as Skipped instead
	// of burning more budget (0 = 3 when retries are enabled).
	BreakerAfter int
	// RetryBackoff is the base delay between cell re-attempts (0 = 50ms).
	// Actual sleeps follow a decorrelated-jitter schedule seeded from the
	// cell key, so simultaneous cell failures don't retry in lockstep
	// while every schedule stays reproducible.
	RetryBackoff time.Duration
	// RetrySeed perturbs the per-cell retry-jitter streams (0 is fine).
	RetrySeed uint64

	// Gate, when non-nil, is a shared admission gate used instead of a
	// fresh per-campaign gate: every simulation of every campaign holding
	// the same channel competes for its capacity, so a serving layer can
	// bound total concurrency across many tenants' campaigns with one
	// Workers-sized pool. The channel's capacity, not Options.Workers,
	// bounds in-flight simulations when Gate is set.
	Gate chan struct{}
	// SharedRetryBudget, when non-nil, replaces the campaign-private
	// retry pool: cell re-attempts draw from this counter instead, so
	// several campaigns (e.g. one tenant's concurrent jobs) share one
	// self-healing allowance. RetryBudget is ignored when set.
	SharedRetryBudget *atomic.Int64
	// Tenant labels every Progress event with the submitting tenant, so
	// a multi-campaign progress sink can fan events back out per client.
	Tenant string
}

// Progress is one scheduler event: a cell finished (or failed), or — for
// the leading Note event — the checkpoint load had something to report.
type Progress struct {
	Campaign    string        // spec name
	Tenant      string        // Options.Tenant, verbatim ("" outside a serving layer)
	Cell        string        // cell key ("" for a Note-only event)
	Done, Total int           // completed cells / campaign size
	Cached      bool          // served entirely from the checkpoint
	Err         error         // the cell's failure, if any
	Attempts    int           // attempts this cell consumed (≥ 1)
	Skipped     bool          // the scheduler parked this cell
	Note        string        // checkpoint-load report (quarantine, salvage)
	CellElapsed time.Duration // wall-clock from the cell's admission to done (a group's members share it)
	Elapsed     time.Duration // campaign wall-clock so far
	ETA         time.Duration // naive remaining-time estimate
}

// CellResult is one executed cell.
type CellResult struct {
	Cell      Cell
	Summary   sim.Summary     // sweep cells
	RunErrors []*sim.RunError // sweep cells: per-seed failures
	Value     any             // probe cells: the NewValue pointer, filled
	Err       error           // cell-level failure
	Cached    bool            // probe served from the checkpoint
	Attempts  int             // scheduler attempts consumed (≥ 1)
	Skipped   bool            // parked by the breaker / budget exhaustion
	Elapsed   time.Duration
}

// ResultSet holds every cell's result, keyed by cell key, with the
// spec's order preserved — the renderer's single source of truth.
type ResultSet struct {
	name    string
	order   []string
	results map[string]*CellResult
}

// Name returns the campaign name.
func (rs *ResultSet) Name() string { return rs.name }

// Keys returns the cell keys in spec order.
func (rs *ResultSet) Keys() []string { return append([]string(nil), rs.order...) }

// Get returns the result for a cell key, or nil if the key is unknown.
func (rs *ResultSet) Get(key string) *CellResult { return rs.results[key] }

// Summary returns a sweep cell's seed summary, or an error if the cell
// is missing, failed, or had failing seeds (first seed error wins, so a
// renderer can stop at the earliest broken input).
func (rs *ResultSet) Summary(key string) (sim.Summary, error) {
	cr := rs.results[key]
	if cr == nil {
		return sim.Summary{}, fmt.Errorf("campaign: no result for cell %q", key)
	}
	if cr.Err != nil {
		return sim.Summary{}, fmt.Errorf("campaign: cell %q: %w", key, cr.Err)
	}
	if len(cr.RunErrors) > 0 {
		return sim.Summary{}, fmt.Errorf("campaign: cell %q: %w", key, cr.RunErrors[0])
	}
	return cr.Summary, nil
}

// LossySummary returns a sweep cell's summary tolerating per-seed
// failures (degradation studies expect them), along with the number of
// failed seeds.
func (rs *ResultSet) LossySummary(key string) (sim.Summary, int, error) {
	cr := rs.results[key]
	if cr == nil {
		return sim.Summary{}, 0, fmt.Errorf("campaign: no result for cell %q", key)
	}
	if cr.Err != nil {
		return sim.Summary{}, 0, fmt.Errorf("campaign: cell %q: %w", key, cr.Err)
	}
	return cr.Summary, len(cr.RunErrors), nil
}

// Value returns a probe cell's filled result pointer.
func (rs *ResultSet) Value(key string) (any, error) {
	cr := rs.results[key]
	if cr == nil {
		return nil, fmt.Errorf("campaign: no result for cell %q", key)
	}
	if cr.Err != nil {
		return nil, fmt.Errorf("campaign: cell %q: %w", key, cr.Err)
	}
	return cr.Value, nil
}

// Skipped returns the keys of cells the scheduler parked (circuit
// breaker / retry budget), in spec order. A non-empty slice means the
// ResultSet is partial and the renderer should degrade rather than
// abort: skipped sections are annotated, completed sections render
// normally.
func (rs *ResultSet) Skipped() []string {
	var out []string
	for _, k := range rs.order {
		if cr := rs.results[k]; cr != nil && cr.Skipped {
			out = append(out, k)
		}
	}
	return out
}

// Err returns the first cell failure in spec order, or nil.
func (rs *ResultSet) Err() error {
	for _, k := range rs.order {
		if cr := rs.results[k]; cr != nil && cr.Err != nil {
			return fmt.Errorf("campaign: cell %q: %w", k, cr.Err)
		}
	}
	return nil
}

// Run executes every cell of a spec through the hardened runner with
// bounded cross-cell parallelism and returns the complete ResultSet.
//
// Work is admitted in spec order. Sweep cells that share an access
// stream (equal sim.Config.StreamKey and seed list) run as groups of up
// to sim.GroupCap members: each seed of a group is one run, generating
// the stream once for all its members. One dispatcher walks the groups
// and probe cells in spec order and admits each seed run or probe
// through the shared gate, so the first cells of a spec always run
// first, and a cell's timing starts when its first run is admitted, not
// while it waits in the queue.
//
// Cells complete in any order, land in the set keyed by cell, and
// callers render in spec order afterwards — so output is byte-identical
// whatever the worker count. Cell failures are recorded, not fatal; the
// only non-nil error returns are structural (bad spec) or context
// cancellation.
func Run(ctx context.Context, spec Spec, opts Options) (*ResultSet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]bool, len(spec.Cells))
	for _, c := range spec.Cells {
		if err := c.validate(); err != nil {
			return nil, err
		}
		if seen[c.Key] {
			return nil, fmt.Errorf("campaign: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = true
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	base := opts.Runner
	if base == nil {
		base = sim.NewRunner()
	}
	// One admission gate bounds every run in flight, whichever cell it
	// belongs to. A caller-supplied gate extends the same bound across
	// campaigns.
	gate := opts.Gate
	if gate == nil {
		gate = make(chan struct{}, workers)
	}
	runner := *base
	runner.Config.Gate = gate
	if runner.Config.Workers <= 0 || runner.Config.Workers > workers {
		runner.Config.Workers = workers
	}
	// The dispatcher holds the gate token of every run it admits, so the
	// first attempt runs ungated; cell re-attempts go through the gate.
	ungated := runner
	ungated.Config.Gate = nil

	rs := &ResultSet{
		name:    spec.Name,
		order:   make([]string, 0, len(spec.Cells)),
		results: make(map[string]*CellResult, len(spec.Cells)),
	}
	for _, c := range spec.Cells {
		rs.order = append(rs.order, c.Key)
		rs.results[c.Key] = &CellResult{Cell: c}
	}

	start := time.Now()
	var (
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
	)
	// Surface a noteworthy checkpoint load (quarantine, salvage drops,
	// another format version) as one leading Note event; a clean or absent
	// checkpoint emits nothing, so the event count stays cells-only in
	// the common case.
	if opts.OnProgress != nil && runner.Checkpoint != nil {
		if note := runner.Checkpoint.LoadReport().Note(); note != "" {
			opts.OnProgress(Progress{Campaign: spec.Name, Tenant: opts.Tenant, Total: len(spec.Cells), Note: note, Elapsed: time.Since(start)})
		}
	}
	finish := func(cr *CellResult) {
		mu.Lock()
		done++
		d, total := done, len(spec.Cells)
		elapsed := time.Since(start)
		var eta time.Duration
		if d > 0 && d < total {
			eta = time.Duration(int64(elapsed) / int64(d) * int64(total-d))
		}
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{
				Campaign: spec.Name, Tenant: opts.Tenant, Cell: cr.Cell.Key,
				Done: d, Total: total,
				Cached: cr.Cached, Err: cr.Err,
				Attempts: cr.Attempts, Skipped: cr.Skipped,
				CellElapsed: cr.Elapsed, Elapsed: elapsed, ETA: eta,
			})
		}
		mu.Unlock()
	}

	// The shared retry budget: cell re-attempts draw from one campaign-
	// wide pool so a single pathological cell cannot starve the rest, and
	// a storm of failing cells converges instead of retrying forever. A
	// caller-supplied pool spans campaigns (per-tenant budgets).
	budget := opts.SharedRetryBudget
	if budget == nil {
		budget = new(atomic.Int64)
		budget.Store(int64(opts.RetryBudget))
	}
	pol := cellPolicy{
		budget:   budget,
		breaker:  opts.BreakerAfter,
		backoff:  opts.RetryBackoff,
		seed:     opts.RetrySeed,
		campaign: spec.Name,
	}
	if pol.breaker <= 0 {
		pol.breaker = 3
	}
	if pol.backoff <= 0 {
		pol.backoff = 50 * time.Millisecond
	}

	// complete settles a unit whose runs are over: re-attempts for the
	// cells that failed transiently, then one span, metric and progress
	// event per cell. The unit's admission-to-done time is shared by its
	// members: each cell's CellElapsed reports the whole interval (the
	// latency a progress line shows), while its span and
	// tivapromi_cell_seconds take an equal 1/k slice of it, laid end to
	// end, so cell time adds up to the pool time the unit held.
	complete := func(u *unit) {
		if u.sweep != nil {
			for i, out := range u.sweep.Results(ctx) {
				cr := u.crs[i]
				cr.Summary, cr.RunErrors, cr.Err = out.Summary, out.RunErrors, out.Err
			}
		}
		for i, c := range u.cells {
			u.crs[i].Attempts = 1
			retryCell(ctx, &runner, c, u.crs[i], pol)
		}
		end := time.Now()
		admittedAt := u.admitted
		if admittedAt.IsZero() {
			admittedAt = end // never admitted: cached or cancelled
		}
		elapsed := end.Sub(admittedAt)
		share := elapsed / time.Duration(len(u.cells))
		for i, c := range u.cells {
			cr := u.crs[i]
			cr.Elapsed = elapsed
			from := admittedAt.Add(time.Duration(i) * share)
			obs.CellSeconds.Observe(share.Seconds())
			if cr.Attempts > 1 {
				obs.CellRetries.Add(uint64(cr.Attempts - 1))
			}
			outcome := "ok"
			switch {
			case cr.Skipped:
				outcome = "skipped"
				obs.CellsSkipped.Inc()
			case cr.Err != nil:
				outcome = "err"
			default:
				obs.CellsCompleted.Inc()
				if cr.Cached {
					obs.CellsCached.Inc()
				}
			}
			obs.SpanBetween("cell", "campaign", from, from.Add(share),
				"campaign", spec.Name, "cell", c.Key, "tenant", opts.Tenant,
				"members", strconv.Itoa(len(u.cells)),
				"outcome", outcome, "attempts", strconv.Itoa(cr.Attempts))
			finish(cr)
		}
	}

	for _, u := range planUnits(spec.Cells, rs) {
		jobs := u.prepare(&runner)
		// left counts the unit's unfinished runs plus the dispatcher's
		// own hold, released once it stops admitting this unit.
		u.left.Store(int32(len(jobs)) + 1)
		launched := 0
		for _, job := range jobs {
			if ctx.Err() != nil || !acquire(ctx, gate) {
				break
			}
			if launched == 0 {
				u.admitted = time.Now()
			}
			launched++
			wg.Add(1)
			go func(job int) {
				defer wg.Done()
				u.run(ctx, &ungated, job)
				<-gate
				if u.left.Add(-1) == 0 {
					complete(u)
				}
			}(job)
		}
		if launched < len(jobs) && u.sweep == nil {
			u.crs[0].Err = ctx.Err() // a probe cancelled before admission
		}
		if u.left.Add(-int32(1+len(jobs)-launched)) == 0 {
			complete(u) // every run it launched has finished, or none was
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return rs, err
	}
	return rs, nil
}

// unit is one admission unit of the scheduler: a probe cell, or a group
// of sweep cells sharing a stream key and seed list.
type unit struct {
	cells    []Cell
	crs      []*CellResult
	sweep    *sim.Sweep // sweep units, once prepared
	left     atomic.Int32
	admitted time.Time // when the unit's first run was admitted
}

// planUnits splits cells into admission units in spec order: each probe
// cell alone; each sweep cell that can ride an earlier cell of its group
// (sim.RideOf; same stream key and seed list) into a unit with that host
// and its other riders; and every other sweep cell into the latest group
// with its stream key and seed list, until that group holds sim.GroupCap
// members. A host's unit counts its mirrors toward sim.GroupCap, since
// each holds per-row device state; certified riders hold none and do not
// count. A mirror that finds its host full is planned like any other
// cell.
func planUnits(cells []Cell, rs *ResultSet) []*unit {
	groups := make(map[groupKey]int)
	group := make([]int, len(cells)) // per sweep cell: its group's index
	var hosts [][]int                // per group: its cells that ride nothing
	riders := make([][]int, len(cells))
	mirrors := make([]int, len(cells))
	rides := make([]bool, len(cells))
	for i := range cells {
		c := &cells[i]
		if !c.IsSweep() {
			continue
		}
		k := groupKeyOf(*c)
		g, ok := groups[k]
		if !ok {
			g = len(hosts)
			groups[k] = g
			hosts = append(hosts, nil)
		}
		group[i] = g
		for _, h := range hosts[g] {
			if cells[h].Technique != c.Technique {
				continue // sim.RideOf pairs equal techniques only
			}
			hm, m := cells[h].member(), c.member()
			r := sim.RideOf(&hm, &m)
			if r == sim.Mirror && mirrors[h]+1 < sim.GroupCap {
				mirrors[h]++
			} else if r != sim.Certified {
				continue
			}
			riders[h] = append(riders[h], i)
			rides[i] = true
			break
		}
		if !rides[i] {
			hosts[g] = append(hosts[g], i)
		}
	}
	var units []*unit
	open := make(map[int]*unit) // per group: its latest unit without riders
	for i := range cells {
		c := &cells[i]
		if rides[i] {
			continue // placed with its host
		}
		cr := rs.results[c.Key]
		grouped := c.IsSweep() && len(riders[i]) == 0
		if o := open[group[i]]; grouped && o != nil && len(o.cells) < sim.GroupCap {
			o.cells = append(o.cells, *c)
			o.crs = append(o.crs, cr)
			continue
		}
		n := 1 + len(riders[i])
		u := &unit{cells: append(make([]Cell, 0, n), *c), crs: append(make([]*CellResult, 0, n), cr)}
		for _, j := range riders[i] {
			u.cells = append(u.cells, cells[j])
			u.crs = append(u.crs, rs.results[cells[j].Key])
		}
		if grouped {
			open[group[i]] = u
		}
		units = append(units, u)
	}
	return units
}

// groupKey is the comparable form of a sweep cell's stream key
// (sim.Config.StreamKey) and seed list: two cells may share a group
// exactly when their keys are equal, which is reflect.DeepEqual of
// both. The slices are packed as varints, so the packing is
// unambiguous; a nil AttackBanks packs apart from an empty one.
type groupKey struct {
	params                  dram.Params
	windows, minAgg, maxAgg int
	share                   float64
	seed                    uint64
	banks, seeds            string
}

func groupKeyOf(c Cell) groupKey {
	k := c.Config.StreamKey()
	var banks, seeds []byte
	if k.AttackBanks != nil {
		banks = []byte{1}
	}
	for _, b := range k.AttackBanks {
		banks = binary.AppendVarint(banks, int64(b))
	}
	if c.Seeds != nil {
		seeds = []byte{1}
	}
	for _, s := range c.Seeds {
		seeds = binary.AppendUvarint(seeds, s)
	}
	return groupKey{params: k.Params, windows: k.Windows,
		minAgg: k.MinAggressors, maxAgg: k.MaxAggressors,
		share: k.AttackShare, seed: k.Seed,
		banks: string(banks), seeds: string(seeds)}
}

// prepare serves what the checkpoint holds and returns the unit's runs
// still to admit: a group's pending seed positions, or a probe's one run
// unless its result is cached.
func (u *unit) prepare(r *sim.Runner) []int {
	c := u.cells[0]
	if !c.IsSweep() {
		if cachedProbe(r, c, u.crs[0]) {
			return nil
		}
		return []int{0}
	}
	members := make([]sim.Member, len(u.cells))
	for i, c := range u.cells {
		members[i] = c.member()
	}
	sw, err := r.NewSweep(members, c.Seeds)
	if err != nil { // unreachable for validated cells
		for _, cr := range u.crs {
			cr.Err = err
		}
		return nil
	}
	u.sweep = sw
	return sw.Pending()
}

// run executes one admitted run of the unit.
func (u *unit) run(ctx context.Context, r *sim.Runner, job int) {
	if u.sweep != nil {
		u.sweep.RunSeed(ctx, job)
		return
	}
	runProbe(ctx, r, u.cells[0], u.crs[0])
}

// acquire takes one gate token, or reports false when ctx ends first.
func acquire(ctx context.Context, gate chan struct{}) bool {
	select {
	case gate <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// cellPolicy carries the scheduler's cell-level retry machinery into one
// cell's re-attempt loop.
type cellPolicy struct {
	budget   *atomic.Int64
	breaker  int
	backoff  time.Duration
	seed     uint64 // Options.RetrySeed
	campaign string // for event-log attribution only
}

// cellSeed derives a stable per-cell jitter seed from the campaign and
// cell identity, so two cells failing at the same instant draw different
// backoff schedules while each schedule stays reproducible.
func cellSeed(campaign, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(campaign))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return h.Sum64()
}

// retryCell re-attempts a cell whose first attempt failed transiently
// (cell-level errors, stalled seeds) under the campaign's shared budget
// until the per-cell circuit breaker trips, at which point the cell is
// parked as Skipped with its last failure wrapped beneath
// ErrCellSkipped. A re-attempt runs the cell alone through the gated
// runner; with a checkpoint armed, completed seeds are memoized, so only
// the failed remainder re-runs.
func retryCell(ctx context.Context, r *sim.Runner, c Cell, cr *CellResult, pol cellPolicy) {
	var jitter *sim.RetryJitter
	for cellRetryable(ctx, cr) {
		if cr.Attempts >= pol.breaker || !takeToken(pol.budget) {
			reason := "budget-dry"
			if cr.Attempts >= pol.breaker {
				reason = "breaker"
				obs.BreakerTrips.Inc()
			}
			cr.Skipped = true
			cr.Err = fmt.Errorf("%w after %d attempt(s): %w", ErrCellSkipped, cr.Attempts, cellFailure(cr))
			obs.Emit("cell-skipped",
				"campaign", pol.campaign, "cell", c.Key,
				"reason", reason,
				"attempts", strconv.Itoa(cr.Attempts),
				"err", cellFailure(cr).Error())
			obs.Instant("cell-skipped", "campaign",
				"cell", c.Key, "reason", reason)
			return
		}
		obs.Emit("cell-retry",
			"campaign", pol.campaign, "cell", c.Key,
			"attempt", strconv.Itoa(cr.Attempts),
			"err", cellFailure(cr).Error())
		if jitter == nil {
			jitter = sim.NewRetryJitter(pol.backoff, 0, pol.seed^cellSeed(pol.campaign, c.Key))
		}
		if !sleepOrDone(ctx, jitter.Next()) {
			return
		}
		cr.Attempts++
		// Reset the slate the previous attempt left.
		cr.Summary, cr.RunErrors, cr.Value, cr.Err, cr.Cached = sim.Summary{}, nil, nil, nil, false
		if c.IsSweep() {
			cr.Summary, cr.RunErrors, cr.Err = r.RunSeeds(ctx, c.Config, c.Technique, c.Seeds)
		} else if !cachedProbe(r, c, cr) {
			runProbe(ctx, r, c, cr)
		}
	}
}

// cellRetryable reports whether another scheduler attempt could help:
// cell-level failures and stalled seeds are transient from the campaign's
// point of view; ordinary per-seed RunErrors are reported as-is, and
// cancellation ends the loop immediately.
func cellRetryable(ctx context.Context, cr *CellResult) bool {
	if ctx.Err() != nil {
		return false
	}
	if cr.Err != nil {
		return !errors.Is(cr.Err, context.Canceled) && !errors.Is(cr.Err, context.DeadlineExceeded)
	}
	for _, re := range cr.RunErrors {
		if errors.Is(re, sim.ErrStalled) {
			return true
		}
	}
	return false
}

// cellFailure returns the failure that made the attempt retryable — the
// cell error when set, otherwise the first stalled seed.
func cellFailure(cr *CellResult) error {
	if cr.Err != nil {
		return cr.Err
	}
	for _, re := range cr.RunErrors {
		if errors.Is(re, sim.ErrStalled) {
			return re
		}
	}
	return errors.New("campaign: unknown failure")
}

// takeToken draws one re-attempt from the shared budget; it reports
// false when the pool is dry (the decrement is rolled back so concurrent
// callers see a non-negative pool).
func takeToken(budget *atomic.Int64) bool {
	if budget.Add(-1) < 0 {
		budget.Add(1)
		return false
	}
	return true
}

// sleepOrDone waits d or until ctx is done; it reports whether the wait
// completed.
func sleepOrDone(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// cachedProbe serves a probe cell from the checkpoint's probe cache; it
// reports whether it did.
func cachedProbe(r *sim.Runner, c Cell, cr *CellResult) bool {
	if r.Checkpoint == nil || c.NewValue == nil {
		return false
	}
	raw, ok := r.Checkpoint.Probe(sim.ProbeFingerprint(c.Key))
	if !ok {
		return false
	}
	v := c.NewValue()
	if err := json.Unmarshal(raw, v); err != nil {
		return false // a malformed cache entry falls through to a fresh run
	}
	cr.Value, cr.Cached = v, true
	return true
}

// runProbe runs a probe cell under the runner's hardening and records
// the result in the checkpoint.
func runProbe(ctx context.Context, r *sim.Runner, c Cell, cr *CellResult) {
	var v any
	if c.NewValue != nil {
		v = c.NewValue()
	}
	err := r.Config.Do(ctx, func(runCtx context.Context) error {
		return c.Run(runCtx, v)
	})
	if err != nil {
		cr.Err = err
		return
	}
	cr.Value = v
	if ck := r.Checkpoint; ck != nil && c.NewValue != nil {
		if err := ck.PutProbe(sim.ProbeFingerprint(c.Key), v); err != nil {
			cr.Err = fmt.Errorf("campaign: caching probe %q: %w", c.Key, err)
		}
	}
}
