package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// chromeTrace mirrors the subset of the trace-event format we emit,
// for round-trip validation with the stdlib decoder.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		DroppedEvents uint64 `json:"droppedEvents"`
	} `json:"otherData"`
	TraceEvents []struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   int64             `json:"ts"`
		Dur  int64             `json:"dur"`
		Pid  int64             `json:"pid"`
		Tid  int64             `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func TestTracerRoundTrip(t *testing.T) {
	tr := NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)

	sp := StartSpan("cell", "campaign", "section", "table2", "cell", "3")
	time.Sleep(time.Millisecond)
	sp.End("outcome", "ok")
	Instant("retry", "runner", "attempt", "2")
	SpanBetween("queue-wait", "serve", tr.start, tr.start.Add(5*time.Millisecond), "tenant", "a")

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(got.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(got.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range got.TraceEvents {
		byName[ev.Name] = i
		if ev.Pid != 1 {
			t.Errorf("event %q pid = %d, want 1", ev.Name, ev.Pid)
		}
	}
	cell := got.TraceEvents[byName["cell"]]
	if cell.Ph != "X" || cell.Dur < 900 {
		t.Errorf("cell span ph=%q dur=%dus, want X with dur >= 900us", cell.Ph, cell.Dur)
	}
	if cell.Args["section"] != "table2" || cell.Args["outcome"] != "ok" {
		t.Errorf("cell args = %v, open+close args not merged", cell.Args)
	}
	retry := got.TraceEvents[byName["retry"]]
	if retry.Ph != "i" || retry.Args["attempt"] != "2" {
		t.Errorf("instant = %+v", retry)
	}
	qw := got.TraceEvents[byName["queue-wait"]]
	if qw.Dur < 4900 || qw.Dur > 5100 {
		t.Errorf("retroactive span dur = %dus, want ~5000", qw.Dur)
	}
}

func TestTracerOffIsNoop(t *testing.T) {
	SetTracer(nil)
	sp := StartSpan("x", "y", "k", "v")
	sp.End()
	Instant("x", "y")
	SpanBetween("x", "y", time.Now(), time.Now())
	// Nothing to assert beyond "did not panic"; allocation behavior is
	// covered by the act-path alloc gate (TestActPathAllocFree).
}

func TestTracerTidReuse(t *testing.T) {
	tr := NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)
	// Sequential spans must reuse track 1 rather than climbing.
	for i := 0; i < 5; i++ {
		StartSpan("s", "c").End()
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for _, ev := range got.TraceEvents {
		if ev.Tid != 1 {
			t.Fatalf("sequential spans spread over tids: %+v", got.TraceEvents)
		}
	}
}

func TestTracerBoundedBuffer(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < maxTraceEvents+10; i++ {
		tr.push(traceEvent{name: "e", ph: 'i'})
	}
	if tr.Len() != maxTraceEvents {
		t.Fatalf("buffer grew past cap: %d", tr.Len())
	}
	if tr.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", tr.Dropped())
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := StartSpan("w", "test")
				sp.End()
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("concurrent trace does not parse: %v", err)
	}
	if len(got.TraceEvents) != 1600 {
		t.Fatalf("got %d events, want 1600", len(got.TraceEvents))
	}
}

func TestEventLog(t *testing.T) {
	var buf bytes.Buffer
	SetEventSink(&buf)
	defer SetEventSink(nil)
	Emit("run-retry", "seed", "42", "err", `stall detected`, "msg", "two words")
	line := buf.String()
	for _, want := range []string{"event=run-retry", "seed=42", `msg="two words"`} {
		if !strings.Contains(line, want) {
			t.Errorf("event line missing %q: %s", want, line)
		}
	}
	if !strings.HasPrefix(line, "ts=") || !strings.HasSuffix(line, "\n") {
		t.Errorf("malformed event line: %q", line)
	}
	buf.Reset()
	SetEventSink(nil)
	Emit("ignored")
	if buf.Len() != 0 {
		t.Error("emit after sink removal still wrote")
	}
}
