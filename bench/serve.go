package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/iofault"
	"tivapromi/internal/serve"
	"tivapromi/internal/sim"
)

// serveScale is one serving traffic mix: the jobs of a round and the
// grid fresh specs are drawn from.
type serveScale struct {
	jobs     int
	sections []string
	windows  int // fresh specs use 1..windows refresh windows
	seeds    int // and 1..seeds seeds per data point
}

// serveMinRounds is the fewest rounds a serve-mixed run pools, so the
// tail percentile is always taken over at least this many rounds' jobs.
const serveMinRounds = 2

// mixedServe is the serve-mixed workload's mix. Its 5 x 1 x 3 grid
// holds exactly the 15 fresh specs 50 jobs need at 30%, so every round
// and seed simulates the same work. A round is short enough that a run
// pools about five, each in another seeded order.
func mixedServe() serveScale {
	return serveScale{
		jobs:     50,
		sections: []string{"fig4", "refreshpolicies", "aggressors", "ablation", "table3"},
		windows:  1,
		seeds:    3,
	}
}

type jobKind int

const (
	kindFresh  jobKind = iota // a spec no earlier job asked for
	kindDedup                 // another tenant's earlier spec, served by the shared cache
	kindReplay                // a re-POST of an earlier job with its tenant and key
)

// catJob is one entry of the seeded job catalogue.
type catJob struct {
	kind jobKind
	req  serve.Request
	body []byte
	key  string // Idempotency-Key sent with the POST
	orig int    // dedup: the job whose spec it repeats; replay: the job it re-posts; -1 otherwise
	deps []int  // earlier jobs that must finish before this one is submitted
}

// catalogue derives a round's job sequence from seed and round: 30%
// fresh specs, 60% dedups (an earlier fresh spec again, under another
// tenant) and 10% replays (an earlier job re-posted with its tenant and
// Idempotency-Key), the first job fresh and the rest in seeded order. The
// fresh specs walk the grid in a fixed order, so every round simulates the
// same work; seed and round place the jobs of each kind and pick the job
// each dedup or replay repeats. A job waits, before it is submitted, for
// the last earlier job
// that shares a cell with it, so each cell is computed once and a dedup
// is always served from the cache; nothing else orders the clients. It
// returns the accesses the fresh jobs simulate.
func (s serveScale) catalogue(seed uint64, round int, base campaign.Eval) ([]catJob, uint64, error) {
	rng := rand.New(rand.NewSource(int64(seed<<16 | uint64(round))))
	var fresh []serve.Request
	for w := 1; w <= s.windows; w++ {
		for n := 1; n <= s.seeds; n++ {
			for _, sec := range s.sections {
				fresh = append(fresh, serve.Request{Sections: []string{sec}, Seeds: n, Windows: w})
			}
		}
	}
	nFresh, nReplay := s.jobs*3/10, s.jobs/10
	if nFresh == 0 || nFresh > len(fresh) {
		return nil, 0, fmt.Errorf("serve-mixed: %d jobs need %d fresh specs, the grid holds %d", s.jobs, nFresh, len(fresh))
	}
	kinds := make([]jobKind, s.jobs)
	for i := range kinds {
		switch {
		case i < nFresh:
			kinds[i] = kindFresh
		case i < nFresh+nReplay:
			kinds[i] = kindReplay
		default:
			kinds[i] = kindDedup
		}
	}
	rest := kinds[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })

	jobs := make([]catJob, 0, s.jobs)
	var specs, keyed []int // fresh jobs; jobs posted under their own key
	for i, k := range kinds {
		j := catJob{kind: k, key: fmt.Sprintf("job-%d", i), orig: -1}
		switch k {
		case kindFresh:
			j.req = fresh[len(specs)]
			specs = append(specs, i)
		case kindDedup:
			j.orig = specs[rng.Intn(len(specs))]
			j.req = jobs[j.orig].req
		case kindReplay:
			j.orig = keyed[rng.Intn(len(keyed))]
			j.req, j.key = jobs[j.orig].req, jobs[j.orig].key
		}
		if k != kindReplay {
			keyed = append(keyed, i)
		}
		jobs = append(jobs, j)
	}

	// A replay shares every cell with the job it re-posts, so it also
	// waits for that job and finds it already submitted.
	last := map[string]int{}
	var accesses uint64
	for i := range jobs {
		body, err := json.Marshal(jobs[i].req)
		if err != nil {
			return nil, 0, err
		}
		jobs[i].body = body
		spec, _, err := serve.BuildCampaign(jobs[i].req, base, serve.Limits{})
		if err != nil {
			return nil, 0, err
		}
		for _, c := range spec.Cells {
			id := "probe:" + c.Key
			if c.IsSweep() {
				id = "sweep:" + sim.Fingerprint(c.Config, c.Technique, c.Seeds)
			}
			if p, seen := last[id]; seen {
				jobs[i].deps = append(jobs[i].deps, p)
			} else if c.IsSweep() {
				accesses += uint64(len(c.Seeds)) * accessesOf(c.Config)
			}
			last[id] = i
		}
	}
	return jobs, accesses, nil
}

// liveServer is an in-process serve.Server on a loopback listener.
type liveServer struct {
	s      *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

// startServer builds a server with the journal and the shared
// checkpoint cache under dir and returns once /healthz answers 200.
func startServer(dir string, workers int, fsys iofault.FS) (*liveServer, error) {
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{
		Workers:        workers,
		CheckpointPath: filepath.Join(dir, "cache", "checkpoint.json"),
		JournalPath:    filepath.Join(dir, "journal", "journal.log"),
		FS:             fsys,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	l := &liveServer{s: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { l.served <- l.hs.Serve(ln) }()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(l.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		l.stop()
		return nil, err
	}
	return l, nil
}

// stop drains the server, closes the listener and waits for both.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := l.s.Drain(ctx)
	serr := l.hs.Shutdown(ctx)
	<-l.served
	l.s.Close()
	return errors.Join(derr, serr)
}

// jobRun is what one client saw of one job.
type jobRun struct {
	kind                              jobKind
	start, submitted, firstEvent, end time.Time
	id                                string
	replayed                          bool
	state                             serve.JobState
	report                            []byte
	err                               error
}

// doJob submits one job and follows it to its report: POST, then the
// SSE stream until its done event, then GET /report.
func doJob(ctx context.Context, hc *http.Client, base, tenant string, j catJob) (r jobRun) {
	r.kind = j.kind
	r.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/campaigns", bytes.NewReader(j.body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Idempotency-Key", j.key)
	raw, hdr, err := fetch(hc, req, http.StatusAccepted)
	r.submitted = time.Now()
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	var st serve.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	r.id, r.replayed = st.ID, hdr.Get("Idempotent-Replay") == "true"

	if r.state, r.firstEvent, err = followEvents(ctx, hc, base, tenant, r.id); err != nil {
		r.err = fmt.Errorf("events: %w", err)
		return r
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/campaigns/"+r.id+"/report", nil)
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("X-Tenant", tenant)
	if r.report, _, err = fetch(hc, req, http.StatusOK); err != nil {
		r.err = fmt.Errorf("report: %w", err)
	}
	r.end = time.Now()
	return r
}

// fetch performs req and reads the whole body, requiring status want.
func fetch(hc *http.Client, req *http.Request, want int) ([]byte, http.Header, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != want {
		return nil, nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return raw, resp.Header, nil
}

// followEvents reads a job's SSE stream until its done event and
// returns the final state and when the first progress event (or the
// done event, if none came) arrived.
func followEvents(ctx context.Context, hc *http.Client, base, tenant, id string) (serve.JobState, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return "", time.Time{}, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := hc.Do(req)
	if err != nil {
		return "", time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", time.Time{}, fmt.Errorf("%s", resp.Status)
	}
	var first time.Time
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", first, fmt.Errorf("stream ended before the done event: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "progress" && first.IsZero() {
				first = time.Now()
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			if first.IsZero() {
				first = time.Now()
			}
			var st serve.Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return "", first, err
			}
			// Read to the end so the keep-alive connection is reusable.
			_, err := io.Copy(io.Discard, br)
			return st.State, first, err
		}
	}
}

// runServeMixed runs rounds of jobs, each round a fresh catalogue against
// a fresh in-process server, with nproc closed-loop clients, each on one
// keep-alive connection.
func runServeMixed(ctx context.Context, env *runEnv, scale serveScale) (*measurement, error) {
	m := &measurement{tailOps: scale.jobs * serveMinRounds}
	serverDir := func(name string) string { return filepath.Join(env.work, name) }
	var first *liveServer
	var cfs *countingFS
	for i := 0; i < setupReps; i++ {
		dir := serverDir(fmt.Sprintf("serve-%d", i))
		var fsys iofault.FS
		if env.lay != nil && i == setupReps-1 {
			cfs = newCountingFS(filepath.Join(dir, "journal"))
			fsys = cfs
		}
		t0 := time.Now()
		l, err := startServer(dir, env.workers, fsys)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0))
		if i < setupReps-1 {
			if err := l.stop(); err != nil {
				return nil, err
			}
			continue
		}
		first = l
	}
	var traced []jobRun // the traced pass's jobs, every round
	err := rounds(ctx, env, serveMinRounds, func(round int) error {
		cat, accesses, err := scale.catalogue(env.seed, round, campaign.DefaultEval())
		if err != nil {
			return err
		}
		// A stopped server still holds its jobs' reports; dropping the
		// first one keeps a later round's peak RSS that of one server.
		l := first
		first = nil
		if round > 0 {
			if l, err = startServer(serverDir(fmt.Sprintf("serve-round-%d", round)), env.workers, nil); err != nil {
				return err
			}
		}
		var probe *poolProbe
		if env.lay != nil && round == 0 {
			probe = newPoolProbe(env.lay, env.workers)
			lay := env.lay
			l.s.SetRunCampaignForTest(func(ctx context.Context, spec campaign.Spec, opts campaign.Options) (*campaign.ResultSet, error) {
				spec, opts = probe.instrument(spec, opts)
				t0 := time.Now()
				rs, err := campaign.Run(ctx, spec, opts)
				t1 := time.Now()
				lay.add("serve.campaign_s", t1.Sub(t0).Seconds())
				span("bench.serve.campaign", t0, t1, "tenant", opts.Tenant)
				return rs, err
			})
		}
		c0 := cpuTime()
		runs := driveClients(ctx, l.url, env.workers, cat)
		cpu := cpuTime() - c0
		m.opsCPU += cpu
		m.passCPU += cpu
		m.accesses += accesses
		checkServeRound(m, cat, runs)
		if err := l.stop(); err != nil {
			return err
		}
		if probe != nil {
			recordServeRound(env.lay, l, probe, cfs, runs)
		}
		if env.lay != nil {
			for _, r := range runs {
				r.report = nil
				traced = append(traced, r)
			}
		}
		return nil
	})
	if err == nil && env.lay != nil {
		recordServeClients(env.lay, traced)
	}
	return m, err
}

// driveClients runs the catalogue with `clients` closed-loop clients
// pulling jobs in catalogue order.
func driveClients(ctx context.Context, base string, clients int, cat []catJob) []jobRun {
	runs := make([]jobRun, len(cat))
	done := make([]chan struct{}, len(cat))
	tenants := make([]string, len(cat))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			own := [2]string{fmt.Sprintf("c%da", c), fmt.Sprintf("c%db", c)}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(cat) {
					return
				}
				j := cat[k]
				for _, d := range j.deps {
					select {
					case <-done[d]:
					case <-ctx.Done():
					}
				}
				tenant := own[0]
				switch j.kind {
				case kindDedup:
					// Always another tenant than the one that paid for it.
					if tenants[j.orig] == own[0] {
						tenant = own[1]
					}
				case kindReplay:
					tenant = tenants[j.orig]
				}
				tenants[k] = tenant
				runs[k] = doJob(ctx, hc, base, tenant, j)
				close(done[k])
			}
		}(c)
	}
	wg.Wait()
	return runs
}

// checkServeRound applies the serving correctness gates and collects
// the round's timings: every job reaches done, every report of one spec
// is byte-identical, and a replay returns the original job's id.
func checkServeRound(m *measurement, cat []catJob, runs []jobRun) {
	reports := map[string][]byte{}
	var startAll, endAll time.Time
	for k, r := range runs {
		m.attempted++
		j := cat[k]
		switch {
		case r.err != nil:
			m.fail("serve-mixed: job %d: %v", k, r.err)
			continue
		case r.state != serve.StateDone:
			m.fail("serve-mixed: job %d (%s) ended %s", k, r.id, r.state)
			continue
		case j.kind == kindReplay && (!r.replayed || r.id != runs[j.orig].id):
			m.fail("serve-mixed: replay %d got job %s (replayed=%v), want the original %s", k, r.id, r.replayed, runs[j.orig].id)
			continue
		case j.kind != kindReplay && r.replayed:
			m.fail("serve-mixed: job %d was answered as an idempotent replay", k)
			continue
		}
		if prev, ok := reports[string(j.body)]; ok && !bytes.Equal(prev, r.report) {
			m.fail("serve-mixed: job %d's report differs from an earlier report of the same spec", k)
			continue
		}
		reports[string(j.body)] = r.report
		m.ops = append(m.ops, r.end.Sub(r.start))
		if startAll.IsZero() || r.start.Before(startAll) {
			startAll = r.start
		}
		if r.end.After(endAll) {
			endAll = r.end
		}
	}
	m.walls = append(m.walls, endAll.Sub(startAll))
}

// recordServeRound publishes the figures of the traced pass's first
// round: its jobs by kind and its server's dedup, admission, journal and
// checkpoint counts.
func recordServeRound(lay *layers, l *liveServer, probe *poolProbe, cfs *countingFS, runs []jobRun) {
	kinds := map[jobKind]int{}
	for _, r := range runs {
		if r.err == nil {
			kinds[r.kind]++
		}
	}
	lay.set("serve.jobs.fresh", float64(kinds[kindFresh]))
	lay.set("serve.jobs.dedup", float64(kinds[kindDedup]))
	lay.set("serve.jobs.replayed", float64(kinds[kindReplay]))
	lay.set("serve.dedup_hits", float64(l.s.CacheStats().Hits()))
	_, rejected, _, _, _, _ := l.s.CountersSnapshot()
	lay.set("serve.rejected", float64(rejected))
	_, _, jt, jsyncs, _ := cfs.jrnl.snapshot()
	lay.set("serve.journal.fsyncs", float64(jsyncs))
	lay.set("serve.journal.write_s", jt.Seconds())
	recordCheckpointWrites(lay, cfs)
	probe.publishRuns()
}

// recordServeClients publishes the client-side latencies of every job the
// traced pass ran.
func recordServeClients(lay *layers, runs []jobRun) {
	var submit, firstEvent, job, cached []float64
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		submit = append(submit, float64(r.submitted.Sub(r.start))/float64(time.Millisecond))
		firstEvent = append(firstEvent, float64(r.firstEvent.Sub(r.start))/float64(time.Millisecond))
		job = append(job, float64(r.end.Sub(r.start))/float64(time.Millisecond))
		if r.kind == kindDedup {
			cached = append(cached, job[len(job)-1])
		}
		span("bench.job", r.start, r.end, "job", r.id)
	}
	lay.set("serve.submit_ms.p50", percentile(submit, 500))
	lay.set("serve.submit_ms.p95", percentile(submit, 950))
	lay.set("serve.first_event_ms.p50", percentile(firstEvent, 500))
	lay.set("serve.job_ms.p50", median(job))
	lay.set("serve.cached_job_ms.p50", median(cached))
}
