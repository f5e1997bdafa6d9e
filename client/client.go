// Package client is the typed Go client of the kfserved fusion service.
// It shares every wire shape — routes, DTOs, error codes — with the server
// through kfusion/internal/httpapi (re-exported at the kfusion root), so
// client and server cannot drift.
//
// Construct with New and functional options:
//
//	c, err := client.New("http://127.0.0.1:7607",
//		client.WithTimeout(5*time.Second),
//		client.WithRetries(4, 100*time.Millisecond))
//
// One method per route: Health, Ready, Status, Item, Triples, Append.
// Failures carry the server's typed error, so callers dispatch with
// errors.Is across the process boundary:
//
//	_, err := c.Item(ctx, "/m/02mjmr", "/people/person/place_of_birth")
//	if errors.Is(err, kfusion.ErrNotFound) { ... }
//
// GET requests are retried with exponential backoff on connection errors
// and 5xx responses (including 503 while the server hydrates). Append is
// never retried: the server journals a batch before replying, so a lost
// reply leaves the client unable to tell whether the batch landed, and a
// blind retry would double-apply it. Callers own append retry policy.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"kfusion/internal/extract"
	"kfusion/internal/httpapi"
	"kfusion/internal/kfio"
)

// Client talks to one kfserved instance. It is safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithTimeout bounds each HTTP attempt (not the whole retry loop; use the
// request context for an end-to-end deadline). Default 30s.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.hc.Timeout = d }
}

// WithHTTPClient replaces the underlying http.Client (tests inject an
// httptest server's client here). WithTimeout applies on top of it.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetries sets the GET retry budget: up to retries extra attempts after
// the first, sleeping backoff, 2*backoff, 4*backoff, ... between them.
// Default 3 retries from 50ms. WithRetries(0, 0) disables retrying.
func WithRetries(retries int, backoff time.Duration) Option {
	return func(c *Client) { c.maxRetries, c.backoff = retries, backoff }
}

// New builds a client for the kfserved instance at base (scheme + host,
// e.g. "http://127.0.0.1:7607").
func New(base string, opts ...Option) (*Client, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q is not scheme://host", base)
	}
	c := &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{Timeout: 30 * time.Second},
		maxRetries: 3,
		backoff:    50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Health reports liveness.
func (c *Client) Health(ctx context.Context) (*httpapi.HealthResponse, error) {
	var out httpapi.HealthResponse
	return &out, c.get(ctx, httpapi.PathHealthz, &out)
}

// Ready reports readiness; before hydration completes the error matches
// httpapi.ErrNotReady.
func (c *Client) Ready(ctx context.Context) (*httpapi.ReadyResponse, error) {
	var out httpapi.ReadyResponse
	return &out, c.get(ctx, httpapi.PathReadyz, &out)
}

// Status returns the generation counters and method binding.
func (c *Client) Status(ctx context.Context) (*httpapi.StatusResponse, error) {
	var out httpapi.StatusResponse
	return &out, c.get(ctx, httpapi.PathStatus, &out)
}

// Item returns every fused candidate value of one data item. The error
// matches httpapi.ErrNotFound when the current generation holds none.
func (c *Client) Item(ctx context.Context, subject, predicate string) (*httpapi.ItemResponse, error) {
	var out httpapi.ItemResponse
	return &out, c.get(ctx, httpapi.ItemPath(subject, predicate), &out)
}

// TriplesQuery filters a Triples read. The zero value scans the whole
// generation at the server's default page limit.
type TriplesQuery struct {
	Subject   string
	Predicate string
	// MinProb drops rows below this posterior. Leave 0 with HasMinProb
	// false to include everything (even unpredicted rows at -1).
	MinProb    float64
	HasMinProb bool
	// Limit caps returned rows (0 = server default). Total in the response
	// counts all matches regardless.
	Limit int
}

func (q TriplesQuery) encode() string {
	v := url.Values{}
	if q.Subject != "" {
		v.Set("subject", q.Subject)
	}
	if q.Predicate != "" {
		v.Set("predicate", q.Predicate)
	}
	if q.HasMinProb {
		v.Set("min_prob", strconv.FormatFloat(q.MinProb, 'g', -1, 64))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if len(v) == 0 {
		return ""
	}
	return "?" + v.Encode()
}

// Triples returns fused posteriors matching q, in the generation's
// deterministic result order.
func (c *Client) Triples(ctx context.Context, q TriplesQuery) (*httpapi.TriplesResponse, error) {
	var out httpapi.TriplesResponse
	return &out, c.get(ctx, httpapi.PathTriples+q.encode(), &out)
}

// Append journals and applies one extraction batch, returning the
// generation it published. Never retried (see the package doc); the error
// matches httpapi.ErrBusy when another append holds the writer slot and
// httpapi.ErrBadBatch when the server refused the body.
func (c *Client) Append(ctx context.Context, batch []extract.Extraction) (*httpapi.AppendResponse, error) {
	req := httpapi.AppendRequest{Extractions: make([]httpapi.Extraction, 0, len(batch))}
	for _, x := range batch {
		req.Extractions = append(req.Extractions, kfio.RecordOf(x))
	}
	return c.AppendWire(ctx, &req)
}

// AppendWire is Append for callers already holding wire-form extractions
// (e.g. replaying a kfio JSONL feed without parsing objects locally).
func (c *Client) AppendWire(ctx context.Context, req *httpapi.AppendRequest) (*httpapi.AppendResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+httpapi.PathAppend, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	var out httpapi.AppendResponse
	if err := c.do(hreq, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// get runs one GET with the retry budget: connection errors and 5xx
// responses retry with exponential backoff; typed 4xx failures never do.
func (c *Client) get(ctx context.Context, path string, out any) error {
	var err error
	for attempt := 0; ; attempt++ {
		var req *http.Request
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
		if err != nil {
			return err
		}
		err = c.do(req, out)
		if err == nil || !retryable(err) || attempt >= c.maxRetries {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(c.backoff << attempt):
		}
	}
}

// retryable reports whether a GET failure is worth another attempt:
// connection-level errors (no response at all) and 5xx statuses, including
// the typed not-ready 503 of a server still hydrating.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// do runs one attempt and decodes the response into out.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return newAPIError(resp.StatusCode, body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// APIError is a non-2xx response. It unwraps to the typed sentinel the
// server's error code stands for, so errors.Is(err, httpapi.ErrNotFound)
// and friends hold across the process boundary.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func newAPIError(status int, body []byte) *APIError {
	ae := &APIError{Status: status}
	var er httpapi.ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Code != "" {
		ae.Code, ae.Message = er.Code, er.Message
	} else {
		ae.Code = httpapi.CodeInternal
		ae.Message = strings.TrimSpace(string(body))
	}
	return ae
}

func (e *APIError) Error() string {
	return "client: server returned " + strconv.Itoa(e.Status) + " " + e.Code + ": " + e.Message
}

// Unwrap maps the wire code back to its sentinel (nil for internal and
// unknown codes, which then match no sentinel).
func (e *APIError) Unwrap() error { return httpapi.SentinelForCode(e.Code) }
