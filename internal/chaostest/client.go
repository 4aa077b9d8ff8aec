package chaostest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"tivapromi/internal/serve"
)

// client is one tenant's HTTP-side view of a server under torture.
type client struct {
	base   string
	tenant string
	hc     *http.Client
}

// do sends one request as c's tenant, setting each non-empty header.
func (c *client) do(ctx context.Context, method, path string, body []byte, header map[string]string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	for k, v := range header {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	return c.hc.Do(req)
}

// answer is the server's reply to one submission.
type answer struct {
	serve.Status // decoded only from a 202
	code         int
	retryAfter   string
	replay       bool // the server answered a duplicate Idempotency-Key
}

// submit POSTs a campaign spec, under an Idempotency-Key when key is
// non-empty.
func (c *client) submit(ctx context.Context, body []byte, key string) (answer, error) {
	resp, err := c.do(ctx, "POST", "/v1/campaigns", body, map[string]string{"Idempotency-Key": key})
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	a := answer{
		code:       resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After"),
		replay:     resp.Header.Get("Idempotent-Replay") == "true",
	}
	if a.code == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&a.Status)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return a, err
}

func (c *client) status(ctx context.Context, id string) (serve.Status, error) {
	resp, err := c.do(ctx, "GET", "/v1/campaigns/"+id, nil, nil)
	if err != nil {
		return serve.Status{}, err
	}
	defer resp.Body.Close()
	var st serve.Status
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (c *client) report(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, "GET", "/v1/campaigns/"+id+"/report", nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report fetch for %s: HTTP %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// awaitTerminal polls a job to a terminal state. A transport error means
// the server died under the caller's feet (a life's kill); it is
// returned for the caller to classify.
func (c *client) awaitTerminal(ctx context.Context, id string) (serve.Status, error) {
	for {
		st, err := c.status(ctx, id)
		if err != nil {
			return serve.Status{}, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// awaitAndCompare waits for a job to settle and, when it is done,
// compares its report with golden: mismatch is "" when the bytes match,
// else where they part (see diff). A job that settles in any other state
// is returned as is.
func (c *client) awaitAndCompare(ctx context.Context, id string, golden []byte) (final serve.Status, mismatch string, err error) {
	final, err = c.awaitTerminal(ctx, id)
	if err != nil || final.State != serve.StateDone {
		return final, "", err
	}
	text, err := c.report(ctx, id)
	if err != nil {
		return final, "", err
	}
	return final, diff(golden, text), nil
}

// events opens a job's SSE stream, resuming from lastEventID when it is
// non-empty, and calls line for each line until line returns false or
// the stream ends.
func (c *client) events(ctx context.Context, id, lastEventID string, line func(string) bool) error {
	resp, err := c.do(ctx, "GET", "/v1/campaigns/"+id+"/events", nil, map[string]string{"Last-Event-ID": lastEventID})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && line(sc.Text()) {
	}
	return sc.Err()
}

// sseFirstFrame opens a job's event stream (resuming from lastEventID
// when non-empty) and returns the event name of the first frame.
func (c *client) sseFirstFrame(ctx context.Context, id, lastEventID string) (string, error) {
	first := ""
	err := c.events(ctx, id, lastEventID, func(l string) bool {
		name, ok := strings.CutPrefix(l, "event: ")
		if ok {
			first = strings.TrimSpace(name)
		}
		return !ok
	})
	if err == nil && first == "" {
		err = fmt.Errorf("events stream for %s ended before its first frame", id)
	}
	return first, err
}
