package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tivapromi/internal/campaign"
	"tivapromi/internal/dram"
)

// testEval shrinks the evaluation so real jobs complete in test time.
func testEval() campaign.Eval {
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

// emptyRun is a runCampaign override result factory: a completed, empty
// result set (settle then renders the requested sections for real).
func emptyRun(ctx context.Context, spec campaign.Spec, _ campaign.Options) (*campaign.ResultSet, error) {
	return campaign.Run(ctx, campaign.Spec{Name: spec.Name}, campaign.Options{})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.BaseEval.SeedsPerPoint == 0 {
		cfg.BaseEval = testEval()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func submitBody(sections ...string) []byte {
	raw, _ := json.Marshal(Request{Sections: sections})
	return raw
}

func doSubmit(t *testing.T, url, tenant string, body []byte) *http.Response {
	t.Helper()
	req, _ := http.NewRequest("POST", url+"/v1/campaigns", bytes.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func jobID(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("submission response carries no job id")
	}
	return st.ID
}

func getStatus(t *testing.T, url, tenant, id string) Status {
	t.Helper()
	req, _ := http.NewRequest("GET", url+"/v1/campaigns/"+id, nil)
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, url, tenant, id string, want JobState) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, url, tenant, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Status{}
}

func TestDecodeRequestRejections(t *testing.T) {
	lim := DefaultLimits()
	cases := []struct {
		name string
		raw  string
		want error
	}{
		{"empty body", ``, ErrBadSpec},
		{"not json", `{"sections": [`, ErrBadSpec},
		{"unknown field", `{"sections":["table2"],"bogus":1}`, ErrBadSpec},
		{"no sections", `{}`, ErrBadSpec},
		{"unknown section", `{"sections":["nonesuch"]}`, ErrBadSpec},
		{"duplicate section", `{"sections":["table2","table2"]}`, ErrBadSpec},
		{"negative seeds", `{"sections":["table2"],"seeds":-1}`, ErrBadSpec},
		{"trailing garbage", `{"sections":["table2"]} {"x":1}`, ErrBadSpec},
		{"zero threshold", `{"sections":["thresholds"],"thresholds":[0]}`, ErrBadSpec},
		{"seeds over limit", fmt.Sprintf(`{"sections":["table2"],"seeds":%d}`, lim.MaxSeeds+1), ErrSpecTooLarge},
		{"windows over limit", fmt.Sprintf(`{"sections":["table2"],"windows":%d}`, lim.MaxWindows+1), ErrSpecTooLarge},
		{"trials over limit", fmt.Sprintf(`{"sections":["table2"],"trials":%d}`, lim.MaxTrials+1), ErrSpecTooLarge},
	}
	for _, tc := range cases {
		_, err := DecodeRequest([]byte(tc.raw), lim)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeRequest(submitBody("table2", "flooding"), lim); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}

// TestAdmissionControl fills one tenant's queue and checks the overflow
// submission is shed with 429 + Retry-After while the earlier ones are
// admitted.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.SetRunCampaignForTest(func(ctx context.Context, spec campaign.Spec, opts campaign.Options) (*campaign.ResultSet, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return emptyRun(ctx, spec, opts)
	})

	r1 := doSubmit(t, hs.URL, "alpha", submitBody("table2"))
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: %d", r1.StatusCode)
	}
	id1 := jobID(t, r1)
	waitState(t, hs.URL, "alpha", id1, StateRunning)

	r2 := doSubmit(t, hs.URL, "alpha", submitBody("table2"))
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission (queued): %d", r2.StatusCode)
	}
	id2 := jobID(t, r2)

	r3 := doSubmit(t, hs.URL, "alpha", submitBody("table2"))
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: got %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After header")
	}
	r3.Body.Close()

	close(release)
	waitState(t, hs.URL, "alpha", id1, StateDone)
	waitState(t, hs.URL, "alpha", id2, StateDone)
}

// TestTenantFairness holds tenant alpha's first job open and checks
// beta's job starts anyway (fair queuing: one active job per tenant),
// while alpha's second job stays queued behind its first.
func TestTenantFairness(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var started []string
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	s.SetRunCampaignForTest(func(ctx context.Context, spec campaign.Spec, opts campaign.Options) (*campaign.ResultSet, error) {
		mu.Lock()
		started = append(started, opts.Tenant)
		mu.Unlock()
		select {
		case <-release:
		case <-ctx.Done():
		}
		return emptyRun(ctx, spec, opts)
	})

	a1 := jobID(t, doSubmit(t, hs.URL, "alpha", submitBody("table2")))
	a2 := jobID(t, doSubmit(t, hs.URL, "alpha", submitBody("table2")))
	b1 := jobID(t, doSubmit(t, hs.URL, "beta", submitBody("table2")))

	// A job is marked running before it reaches the run hook, so wait
	// for the hook itself to have seen both tenants.
	var snapshot []string
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		snapshot = append([]string(nil), started...)
		mu.Unlock()
		if len(snapshot) >= 2 || time.Now().After(deadline) {
			break
		}
	}
	slices.Sort(snapshot)
	if !slices.Equal(snapshot, []string{"alpha", "beta"}) {
		t.Fatalf("started jobs = %v, want alpha+beta running while alpha's backlog waits", snapshot)
	}
	if st := getStatus(t, hs.URL, "alpha", a2); st.State != StateQueued {
		t.Fatalf("alpha's second job is %s, want queued behind its first", st.State)
	}
	close(release)
	waitState(t, hs.URL, "alpha", a1, StateDone)
	waitState(t, hs.URL, "alpha", a2, StateDone)
	waitState(t, hs.URL, "beta", b1, StateDone)
}

// TestTenantIsolation: a job is a 404 for everyone but its tenant.
func TestTenantIsolation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	id := jobID(t, doSubmit(t, hs.URL, "alpha", submitBody("table2")))
	waitState(t, hs.URL, "alpha", id, StateDone)

	req, _ := http.NewRequest("GET", hs.URL+"/v1/campaigns/"+id, nil)
	req.Header.Set("X-Tenant", "mallory")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("foreign tenant read: got %d, want 404", resp.StatusCode)
	}
}

// TestDrain: draining rejects new work with 503 + Retry-After, lets the
// in-flight job finish, and leaves no serve goroutines behind.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	s, hs := newTestServer(t, Config{Workers: 1, DrainTimeout: 30 * time.Second})
	s.SetRunCampaignForTest(func(ctx context.Context, spec campaign.Spec, opts campaign.Options) (*campaign.ResultSet, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return emptyRun(ctx, spec, opts)
	})
	id := jobID(t, doSubmit(t, hs.URL, "alpha", submitBody("table2")))
	waitState(t, hs.URL, "alpha", id, StateRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Admission must close promptly even while the drain waits.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := doSubmit(t, hs.URL, "beta", submitBody("table2"))
		code := resp.StatusCode
		retry := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			if retry == "" {
				t.Error("503 during drain carries no Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions still admitted during drain (last status %d)", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := getStatus(t, hs.URL, "alpha", id); st.State != StateDone {
		t.Fatalf("in-flight job after drain: %s, want done", st.State)
	}
	waitNoServeGoroutines(t)
}

// TestDrainForceCancel: a job that outlives the grace period is
// force-cancelled, not waited on forever.
func TestDrainForceCancel(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, DrainTimeout: 50 * time.Millisecond})
	s.SetRunCampaignForTest(func(ctx context.Context, spec campaign.Spec, opts campaign.Options) (*campaign.ResultSet, error) {
		<-ctx.Done() // only a cancel ends this job
		return nil, ctx.Err()
	})
	id := jobID(t, doSubmit(t, hs.URL, "alpha", submitBody("table2")))
	waitState(t, hs.URL, "alpha", id, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := getStatus(t, hs.URL, "alpha", id); st.State != StateCanceled {
		t.Fatalf("wedged job after forced drain: %s, want canceled", st.State)
	}
}

// TestPanicIsolation: a panicking job fails that job only; the server
// keeps answering and the panic is counted.
func TestPanicIsolation(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	s.SetRunCampaignForTest(func(context.Context, campaign.Spec, campaign.Options) (*campaign.ResultSet, error) {
		panic("job boom")
	})
	id := jobID(t, doSubmit(t, hs.URL, "alpha", submitBody("table2")))
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus(t, hs.URL, "alpha", id)
		if st.State == StateFailed {
			if !strings.Contains(st.Error, "panic") {
				t.Fatalf("failed job error %q does not mention the panic", st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("panicking job never failed (state %s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, _, _, _, panics := s.CountersSnapshot(); panics == 0 {
		t.Error("panic counter not incremented")
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatalf("server dead after job panic: %v", err)
	}
	resp.Body.Close()
}

// TestHandlerPanicIsolation drives the recover middleware directly.
func TestHandlerPanicIsolation(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
}

// TestTenantCircuitBreaker: consecutive failed jobs open the tenant's
// breaker; submissions are shed with 429 until the cooldown passes.
func TestTenantCircuitBreaker(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, TenantBreakAfter: 2, TenantCooldown: 100 * time.Millisecond})
	s.SetRunCampaignForTest(func(context.Context, campaign.Spec, campaign.Options) (*campaign.ResultSet, error) {
		return nil, errors.New("synthetic failure")
	})
	for i := 0; i < 2; i++ {
		id := jobID(t, doSubmit(t, hs.URL, "alpha", submitBody("table2")))
		deadline := time.Now().Add(10 * time.Second)
		for getStatus(t, hs.URL, "alpha", id).State != StateFailed {
			if time.Now().After(deadline) {
				t.Fatal("job never failed")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	resp := doSubmit(t, hs.URL, "alpha", submitBody("table2"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission with open breaker: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker 429 carries no Retry-After")
	}
	resp.Body.Close()
	// Breakers heal: after the cooldown the tenant may submit again.
	time.Sleep(150 * time.Millisecond)
	resp = doSubmit(t, hs.URL, "alpha", submitBody("table2"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission after cooldown: got %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSSEStream: the events endpoint replays history, streams live
// events, and terminates with a "done" event when the job completes.
func TestSSEStream(t *testing.T) {
	gate := make(chan struct{})
	s, hs := newTestServer(t, Config{Workers: 1})
	s.SetRunCampaignForTest(func(ctx context.Context, spec campaign.Spec, opts campaign.Options) (*campaign.ResultSet, error) {
		opts.OnProgress(campaign.Progress{Campaign: spec.Name, Tenant: opts.Tenant, Cell: "c1", Done: 1, Total: 2})
		<-gate
		opts.OnProgress(campaign.Progress{Campaign: spec.Name, Tenant: opts.Tenant, Cell: "c2", Done: 2, Total: 2})
		return emptyRun(ctx, spec, opts)
	})
	id := jobID(t, doSubmit(t, hs.URL, "alpha", submitBody("table2")))

	req, _ := http.NewRequest("GET", hs.URL+"/v1/campaigns/"+id+"/events", nil)
	req.Header.Set("X-Tenant", "alpha")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(gate)
	raw, err := io.ReadAll(resp.Body) // server closes the stream on job completion
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{`"cell":"c1"`, `"cell":"c2"`, "event: done"} {
		if !strings.Contains(body, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, body)
		}
	}
}

// TestSharedCacheDedup runs two tenants' identical real campaigns back
// to back over one shared checkpoint and checks the second is served
// from the cache, byte-identically.
func TestSharedCacheDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	ckpt := filepath.Join(t.TempDir(), "cache.json")
	_, hs := newTestServer(t, Config{Workers: 4, CheckpointPath: ckpt})
	body := submitBody("table2", "flooding")

	idA := jobID(t, doSubmit(t, hs.URL, "alpha", body))
	stA := waitState(t, hs.URL, "alpha", idA, StateDone)
	idB := jobID(t, doSubmit(t, hs.URL, "beta", body))
	stB := waitState(t, hs.URL, "beta", idB, StateDone)

	if stB.DedupHits == 0 {
		t.Error("second tenant's identical campaign hit the shared cache 0 times")
	}
	if stA.DedupHits != 0 {
		t.Errorf("first tenant's campaign claims %d dedup hits on an empty cache", stA.DedupHits)
	}
	if a, b := fetchReport(t, hs.URL, "alpha", idA), fetchReport(t, hs.URL, "beta", idB); a != b {
		t.Error("cached tenant's report differs from the computed one")
	}
}

// TestSharedCacheReusesSeedsAcrossSweepWidths has two tenants sweep the
// same section at different seed counts over one shared checkpoint: the
// wider sweep reuses every seed the narrower one ran and simulates only
// the new one, and both reports equal fresh computations.
func TestSharedCacheReusesSeedsAcrossSweepWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation; skipped in -short")
	}
	bodyA, _ := json.Marshal(Request{Sections: []string{"fig4"}, Seeds: 2})
	bodyB, _ := json.Marshal(Request{Sections: []string{"fig4"}, Seeds: 3})

	s, hs := newTestServer(t, Config{Workers: 4, CheckpointPath: filepath.Join(t.TempDir(), "cache.json")})
	idA := jobID(t, doSubmit(t, hs.URL, "alpha", bodyA))
	waitState(t, hs.URL, "alpha", idA, StateDone)
	before := s.CacheStats()
	idB := jobID(t, doSubmit(t, hs.URL, "beta", bodyB))
	waitState(t, hs.URL, "beta", idB, StateDone)
	after := s.CacheStats()

	cells := int64(len(campaign.Fig4Spec(testEval()).Cells))
	if misses := after.SweepMisses - before.SweepMisses; misses != cells {
		t.Errorf("the 3-seed campaign missed %d seeds; want %d, the new seed of each sweep cell", misses, cells)
	}
	if hits := after.SweepHits - before.SweepHits; hits != 2*cells {
		t.Errorf("the 3-seed campaign hit %d seeds; want %d, the 2 earlier seeds of each sweep cell", hits, 2*cells)
	}

	_, fresh := newTestServer(t, Config{Workers: 4})
	for _, c := range []struct {
		tenant, id string
		body       []byte
	}{{"alpha", idA, bodyA}, {"beta", idB, bodyB}} {
		id := jobID(t, doSubmit(t, fresh.URL, "gamma", c.body))
		waitState(t, fresh.URL, "gamma", id, StateDone)
		if got, want := fetchReport(t, hs.URL, c.tenant, c.id), fetchReport(t, fresh.URL, "gamma", id); got != want {
			t.Errorf("%s's report over the shared cache differs from a fresh run", c.tenant)
		}
	}
}

// fetchReport returns a finished job's rendered report.
func fetchReport(t *testing.T, url, tenant, id string) string {
	t.Helper()
	req, _ := http.NewRequest("GET", url+"/v1/campaigns/"+id+"/report", nil)
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report fetch: %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// waitNoServeGoroutines asserts every serve-owned goroutine exited.
func waitNoServeGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := serveGoroutines(); n == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("serve goroutines still running:\n%s", buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// serveGoroutines counts goroutines currently inside serve's job or
// drain machinery (the test's own frames are in _test.go files and the
// HTTP plumbing, which don't match these markers).
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
