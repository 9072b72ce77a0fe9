package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpujoule/internal/obs"
)

// Client is the HTTP client for a gpujouled daemon or cluster. It
// speaks only the /v1 API; all simulation, caching, coalescing, and
// scheduling stay server-side.
//
// The v2 surface is cluster-aware: the client follows 307 ownership
// redirects (rebasing onto the owning node, so a whole job
// conversation — submit, stream, result — stays on one node) and
// honours Retry-After backpressure hints on 429 (and, opted in via
// RetryPolicy, 503) automatically. Construct it with Dial and
// functional options:
//
//	c, err := service.Dial(
//	    service.WithBaseURL("http://127.0.0.1:8344"),
//	    service.WithTenant("ci"),
//	    service.WithRetry(service.RetryPolicy{MaxAttempts: 8}),
//	)
type Client struct {
	hc        *http.Client
	priority  int
	retry     RetryPolicy
	logfFn    func(format string, args ...any)
	noRedir   bool
	tenant    string // X-Tenant header value (WithTenant)
	submitted func(JobStatus)

	mu   sync.Mutex
	base string // current base URL; rebased when a 307 is followed
}

// ClientOption configures a Client at Dial time.
type ClientOption func(*Client)

// WithBaseURL targets the daemon (or gateway) at base, e.g.
// "http://127.0.0.1:8344". A bare host:port is promoted to http.
func WithBaseURL(base string) ClientOption {
	return func(c *Client) { c.base = normalizeBase(base) }
}

// WithTenant bills submitted jobs to the named scheduling tenant
// (empty selects the server's DefaultTenant).
func WithTenant(tenant string) ClientOption {
	return func(c *Client) { c.tenant = tenant }
}

// WithSubmitted calls fn with the queued status of every job the
// client submits, including those RunSweep and RunSweepStream submit
// internally. It is the handle a caller needs to cancel a job whose
// stream it abandons: the client itself never cancels server-side
// jobs, so an interrupted sweep can resume from cache.
func WithSubmitted(fn func(JobStatus)) ClientOption {
	return func(c *Client) { c.submitted = fn }
}

// WithPriority sets a default scheduling priority applied to submitted
// specs that carry none (Priority == 0). Specs with an explicit
// priority are sent unchanged.
func WithPriority(priority int) ClientOption {
	return func(c *Client) { c.priority = priority }
}

// WithRetry sets the client's backpressure retry policy (see
// RetryPolicy; the zero value retries queue-full rejections forever
// with the server's hints).
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// WithHTTPClient supplies the underlying transport, e.g. one with a
// large connection pool for load generation. The client is shallow-
// copied so redirect interception can be installed without mutating
// the caller's client.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		cp := *hc
		c.hc = &cp
	}
}

// WithLogf routes the client's operational log lines (digest
// mismatches, retry waits) to f. Silent by default.
func WithLogf(f func(format string, args ...any)) ClientOption {
	return func(c *Client) { c.logfFn = f }
}

// WithNoRedirect disables 307 ownership-redirect following: instead of
// rebasing onto the owning node the client surfaces ErrNotOwner (with
// the owner's base URL) and sends the X-GPUJoule-No-Redirect header so
// the serving node runs the job itself rather than redirecting.
// Cluster-internal callers (the gateway) use this; end-user clients
// should not.
func WithNoRedirect() ClientOption {
	return func(c *Client) { c.noRedir = true }
}

// RetryPolicy governs automatic retry of queue-full (429) — and,
// opted in, unavailable (503) — submissions. The server's Retry-After
// hint is always preferred; without one the delay doubles from
// BaseDelay up to MaxDelay.
type RetryPolicy struct {
	// MaxAttempts bounds total submission attempts (0 = retry until
	// the context expires — the v1 behaviour).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff used when the server
	// sends no Retry-After hint (default 1s).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 30s).
	MaxDelay time.Duration
	// RetryUnavailable also retries 503 responses (a node mid-restart
	// behind a load balancer). Off by default: a draining single node
	// is not coming back, and callers should see ErrDraining.
	RetryUnavailable bool
	// Notify, when non-nil, observes every retry: the rejection and
	// the delay about to be slept. Load generators use it to count
	// backpressure events.
	Notify func(err error, delay time.Duration)
}

// Dial builds a v2 client from functional options. WithBaseURL is
// required.
func Dial(opts ...ClientOption) (*Client, error) {
	c := &Client{}
	for _, o := range opts {
		o(c)
	}
	if c.base == "" {
		return nil, errors.New("service: Dial requires WithBaseURL")
	}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	// Redirects are protocol, not plumbing: the client must observe a
	// 307 to rebase (or surface ErrNotOwner), so the transport never
	// follows them on its own.
	c.hc.CheckRedirect = func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse
	}
	return c, nil
}

func normalizeBase(base string) string {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimRight(base, "/")
}

// Base returns the client's current base URL — the node it last
// rebased onto if a 307 was followed, else the dialled one.
func (c *Client) Base() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base
}

func (c *Client) setBase(base string) {
	c.mu.Lock()
	c.base = base
	c.mu.Unlock()
}

func (c *Client) logf(format string, args ...any) {
	if c.logfFn != nil {
		c.logfFn(format, args...)
	}
}

// QueueFullError is the typed form of a 429 rejection: it unwraps to
// ErrQueueFull and carries the server's adaptive Retry-After hint.
type QueueFullError struct {
	// RetryAfter is the server's suggested backoff (zero when the
	// response carried no usable hint).
	RetryAfter time.Duration
	msg        string
}

func (e *QueueFullError) Error() string { return e.msg }

// Unwrap lets errors.Is(err, ErrQueueFull) keep working on the typed
// error.
func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// UnavailableError is the typed form of a 503 rejection: it unwraps to
// ErrDraining and carries the server's Retry-After hint when one was
// sent (a node mid-restart hints; a draining one does not need to —
// it is not coming back).
type UnavailableError struct {
	RetryAfter time.Duration
	msg        string
}

func (e *UnavailableError) Error() string { return e.msg }

// Unwrap lets errors.Is(err, ErrDraining) keep working on the typed
// error.
func (e *UnavailableError) Unwrap() error { return ErrDraining }

func retryAfterHint(resp *http.Response) time.Duration {
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
		return time.Duration(sec) * time.Second
	}
	return 0
}

// apiError decodes the server's {"error": ...} body into a Go error,
// preserving queue-full and unavailable (with their Retry-After hints)
// as matchable typed values so callers can implement retry policy.
func apiError(resp *http.Response, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(body))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return &QueueFullError{RetryAfter: retryAfterHint(resp), msg: fmt.Sprintf("%v (%s)", ErrQueueFull, msg)}
	case http.StatusServiceUnavailable:
		return &UnavailableError{RetryAfter: retryAfterHint(resp), msg: fmt.Sprintf("%v (%s)", ErrDraining, msg)}
	}
	return fmt.Errorf("service: HTTP %d: %s", resp.StatusCode, msg)
}

// maxRedirectHops bounds ownership-redirect chasing per request. One
// hop is the protocol (the owner answers for itself); a second can
// legitimately happen when ring views differ mid-rebalance; beyond
// that something is looping.
const maxRedirectHops = 3

// do runs one request against the current base and decodes the JSON
// response into out (when non-nil). 307/308 ownership redirects are
// followed (rebasing the client onto the owner) unless WithNoRedirect
// was set, in which case they surface as ErrNotOwner. Non-2xx
// responses become errors.
func (c *Client) do(ctx context.Context, method, path string, hdr http.Header, in, out any) error {
	var raw []byte
	if in != nil {
		var err error
		raw, err = json.Marshal(in)
		if err != nil {
			return err
		}
	}
	for hop := 0; ; hop++ {
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.Base()+path, body)
		if err != nil {
			return err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.tenant != "" {
			req.Header.Set(TenantHeader, c.tenant)
		}
		if c.noRedir {
			req.Header.Set(NoRedirectHeader, "1")
		}
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		rbody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTemporaryRedirect || resp.StatusCode == http.StatusPermanentRedirect {
			owner, perr := redirectBase(resp)
			if perr != nil {
				return perr
			}
			if c.noRedir {
				return ErrNotOwner{Owner: owner}
			}
			if hop+1 >= maxRedirectHops {
				return fmt.Errorf("service: %d ownership redirects without converging (last owner %s)", hop+1, owner)
			}
			c.logf("service: %s %s redirected to owning node %s", method, path, owner)
			c.setBase(owner)
			continue
		}
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return apiError(resp, rbody)
		}
		if out != nil {
			return json.Unmarshal(rbody, out)
		}
		return nil
	}
}

// redirectBase extracts the owning node's base URL from a redirect's
// Location header (which points at the resource, e.g.
// "http://node2:8344/v1/jobs").
func redirectBase(resp *http.Response) (string, error) {
	loc := resp.Header.Get("Location")
	u, err := url.Parse(loc)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("service: unusable redirect Location %q", loc)
	}
	return u.Scheme + "://" + u.Host, nil
}

// Submit enqueues a job and returns its queued status. A client
// default priority (WithPriority) is applied to specs that carry none.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	if spec.Priority == 0 && c.priority != 0 {
		spec.Priority = c.priority
	}
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", nil, spec, &st)
	if err == nil && c.submitted != nil {
		c.submitted(st)
	}
	return st, err
}

// submitRetry submits under the client's RetryPolicy: queue-full (and,
// opted in, unavailable) rejections back off — preferring the server's
// Retry-After hint, else exponentially from BaseDelay — and retry
// until MaxAttempts or the context expires.
func (c *Client) submitRetry(ctx context.Context, spec JobSpec) (JobStatus, error) {
	p := c.retry
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Second
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 30 * time.Second
	}
	backoff := p.BaseDelay
	for attempt := 1; ; attempt++ {
		st, err := c.Submit(ctx, spec)
		if err == nil {
			return st, nil
		}
		var hint time.Duration
		var qf *QueueFullError
		var ua *UnavailableError
		switch {
		case errors.As(err, &qf):
			hint = qf.RetryAfter
		case p.RetryUnavailable && errors.As(err, &ua):
			hint = ua.RetryAfter
		default:
			return st, err
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return st, fmt.Errorf("service: %d submission attempts exhausted: %w", attempt, err)
		}
		delay := hint
		if delay <= 0 {
			delay = backoff
			backoff *= 2
			if backoff > p.MaxDelay {
				backoff = p.MaxDelay
			}
		}
		if p.Notify != nil {
			p.Notify(err, delay)
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Status fetches a job's current snapshot.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil, &st)
	return st, err
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil, &st)
	return st, err
}

// Result fetches a done job's result document.
func (c *Client) Result(ctx context.Context, id string) (*ResultDoc, error) {
	var doc ResultDoc
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// resultAfterMismatch is the authoritative refetch after a streamed
// reassembly failed digest verification: the same GET, marked with the
// mismatch header so the server counts the event.
func (c *Client) resultAfterMismatch(ctx context.Context, id, detail string) (*ResultDoc, error) {
	hdr := http.Header{}
	hdr.Set(DigestMismatchHeader, detail)
	var doc ResultDoc
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", hdr, nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Partial fetches a running job's partial result document: the final
// document's shape with null results for unresolved points.
func (c *Client) Partial(ctx context.Context, id string) (*ResultDoc, error) {
	var doc ResultDoc
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result?partial=1", nil, nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Version fetches the daemon's version string.
func (c *Client) Version(ctx context.Context) (string, error) {
	var v struct {
		Version string `json:"version"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/version", nil, nil, &v)
	return v.Version, err
}

// CacheGetRaw fetches one raw result-cache entry from the node, with
// its cache stamp. With wait set, a key currently computing on the
// node blocks until it settles (the cluster-wide singleflight join).
// A miss returns ("", nil, false, nil); transport and HTTP errors are
// returned as errors.
func (c *Client) CacheGetRaw(ctx context.Context, key string, wait bool) (raw []byte, stamp string, ok bool, err error) {
	q := url.Values{"key": {key}}
	if wait {
		q.Set("wait", "1")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base()+"/v1/cache?"+q.Encode(), nil)
	if err != nil {
		return nil, "", false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", false, err
	}
	stamp = resp.Header.Get(CacheStampHeader)
	switch resp.StatusCode {
	case http.StatusOK:
		return body, stamp, true, nil
	case http.StatusNotFound:
		return nil, stamp, false, nil
	}
	return nil, stamp, false, apiError(resp, body)
}

// CachePutRaw replicates one raw result-cache entry to the node,
// stamped so the receiver can reject cross-version entries.
func (c *Client) CachePutRaw(ctx context.Context, key string, rawEntry []byte, stamp string) error {
	q := url.Values{"key": {key}}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.Base()+"/v1/cache?"+q.Encode(), bytes.NewReader(rawEntry))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(CacheStampHeader, stamp)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp, body)
	}
	return nil
}

// Wait polls until the job reaches a terminal state or ctx expires.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// Stream subscribes to a job's SSE event feed from sequence number
// `from`, invoking fn for every event in order (history replays
// first, so from=0 observes the complete log). It returns the
// terminal event once the stream ends with one. A non-nil error from
// fn aborts the stream.
func (c *Client) Stream(ctx context.Context, id string, from int, fn func(JobEvent) error) (JobEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", c.Base(), id, from), nil)
	if err != nil {
		return JobEvent{}, err
	}
	if c.tenant != "" {
		req.Header.Set(TenantHeader, c.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return JobEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return JobEvent{}, apiError(resp, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):]...)
		case line == "" && len(data) > 0:
			var ev JobEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return JobEvent{}, fmt.Errorf("service: decoding stream event: %w", err)
			}
			data = nil
			if fn != nil {
				if err := fn(ev); err != nil {
					return JobEvent{}, err
				}
			}
			if ev.Kind == EventDone {
				return ev, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return JobEvent{}, err
	}
	return JobEvent{}, errors.New("service: event stream ended without a terminal event")
}

// RunSweep submits a spec, waits it out, and returns the result
// document — one sweep round-trip. Submission retries under the
// client's RetryPolicy, honouring the server's adaptive Retry-After
// hints.
func (c *Client) RunSweep(ctx context.Context, spec JobSpec) (*ResultDoc, error) {
	st, err := c.submitRetry(ctx, spec)
	if err != nil {
		return nil, err
	}
	fin, err := c.Wait(ctx, st.ID, 0)
	if err != nil {
		return nil, err
	}
	if ferr := fin.Err(); ferr != nil {
		return nil, ferr
	}
	return c.Result(ctx, fin.ID)
}

// RunSweepStream is RunSweep's streaming form: it submits the spec,
// follows the job's SSE feed (invoking onEvent, when non-nil, for
// every event — point events carry the resolved PointResult), and
// reassembles the result document client-side in expansion order. The
// reassembly is verified against the digest in the terminal event —
// the sha256 of the document the server would serve. A mismatch is
// never silent: it is logged (WithLogf), surfaced to onEvent as a
// synthetic EventDigestMismatch event, and reported to the server
// (which counts it in gpujoule_stream_digest_mismatch_total) on the
// authoritative /result refetch — so the returned document is always
// byte-equivalent to the polled path.
func (c *Client) RunSweepStream(ctx context.Context, spec JobSpec, onEvent func(JobEvent)) (*ResultDoc, error) {
	st, err := c.submitRetry(ctx, spec)
	if err != nil {
		return nil, err
	}
	doc := &ResultDoc{SchemaVersion: obs.SchemaVersion, Points: make([]PointResult, st.Points)}
	fin, err := c.Stream(ctx, st.ID, 0, func(ev JobEvent) error {
		if ev.Kind == EventPoint && ev.Point != nil && ev.Index >= 0 && ev.Index < len(doc.Points) {
			doc.Points[ev.Index] = *ev.Point
		}
		if onEvent != nil {
			onEvent(ev)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if fin.State != StateDone {
		return nil, JobStatus{ID: st.ID, State: fin.State, Error: fin.Error}.Err()
	}
	sum := sha256.Sum256(RenderResultDoc(*doc))
	actual := hex.EncodeToString(sum[:])
	if fin.Digest != "" && actual == fin.Digest {
		return doc, nil
	}
	if fin.Digest == "" {
		// A server too old to stamp a digest: nothing to verify
		// against, /result is authoritative.
		return c.Result(ctx, st.ID)
	}
	detail := fmt.Sprintf("%v: job %s: stream digest %s != server digest %s", ErrDigestMismatch, st.ID, actual, fin.Digest)
	c.logf("service: %s; refetching authoritative /result", detail)
	if onEvent != nil {
		onEvent(JobEvent{Kind: EventDigestMismatch, Error: detail})
	}
	return c.resultAfterMismatch(ctx, st.ID, detail)
}
