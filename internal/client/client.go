// Package client is the typed Go client of wccserve's HTTP API, used by
// cmd/wccload and cmd/wccstream. It has one method per endpoint those
// tools call, decodes into the wire types internal/service declares
// beside its handlers, and sends every request through one retry loop.
//
// Appends are safe to retry: Append sends the digest of the last
// version this client saw of the graph as If-Match, so a retried batch
// that had landed before its response was lost comes back 200 with
// applied=false (service.AppendExpect) instead of being appended twice.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/retry"
	"repro/internal/service"
)

// Client talks to one wccserve base URL. It is safe for concurrent use,
// but appends to one graph are meant to be sequential: concurrent ones
// name the same parent version, and all but one fail with 412.
type Client struct {
	// Base is the server's base URL, without a trailing slash.
	Base string

	http    *http.Client
	policy  *retry.Policy
	retries *atomic.Int64

	mu   sync.Mutex
	seen map[string]string // graph ID → digest of the last version seen
}

// New returns a client of the server at base that sends requests
// through hc and retries them on policy.
func New(base string, hc *http.Client, policy *retry.Policy) *Client {
	return &Client{Base: strings.TrimRight(base, "/"), http: hc, policy: policy,
		retries: new(atomic.Int64), seen: map[string]string{}}
}

// ReadTargets returns one client per base URL in the comma-separated
// list — the replicas a tool spreads its reads across while writes stay
// on c, since a replica answers writes 421. They share c's HTTP client,
// retry policy and retry counter, so c.Retries counts them too. An empty
// list means c serves the reads itself.
func (c *Client) ReadTargets(list string) ([]*Client, error) {
	if list == "" {
		return []*Client{c}, nil
	}
	var out []*Client
	for _, base := range strings.Split(list, ",") {
		if base = strings.TrimSpace(base); base != "" {
			t := New(base, c.http, c.policy)
			t.retries = c.retries
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("read-target list %q names no URL", list)
	}
	return out, nil
}

// Retries is the number of retried attempts so far.
func (c *Client) Retries() int64 { return c.retries.Load() }

// do issues one logical request, replaying the byte-slice body on each
// attempt. Connection errors and shed or transient statuses
// (retry.RetryStatus) are retried with the policy's jittered backoff,
// floored by a server-supplied Retry-After, so a briefly saturated or
// degraded server costs the caller time, not a failed run. A non-empty
// ifMatch makes the request conditional on that version digest. A nil
// out discards the response body without parsing it.
func (c *Client) do(method, path, contentType, ifMatch string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		retryable, floor, err := c.try(method, path, contentType, ifMatch, body, out)
		if err == nil || !retryable || attempt+1 >= c.policy.Attempts {
			return err
		}
		c.retries.Add(1)
		time.Sleep(c.policy.Delay(attempt, floor))
	}
}

func (c *Client) try(method, path, contentType, ifMatch string, body []byte, out any) (retryable bool, floor time.Duration, err error) {
	req, err := http.NewRequest(method, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return false, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if ifMatch != "" {
		req.Header.Set("If-Match", `"`+ifMatch+`"`)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return true, 0, err // connection refused/reset: transient by nature
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return retry.RetryStatus(resp.StatusCode), retry.RetryAfter(resp.Header),
			fmt.Errorf("%s %s: %d %s", method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		err = fmt.Errorf("%s %s: reading the response: %w", method, req.URL.Path, err)
	}
	return false, 0, err
}

// see records digest as the last version seen of graph id.
func (c *Client) see(id, digest string) {
	c.mu.Lock()
	c.seen[id] = digest
	c.mu.Unlock()
}

// graphCall issues a request answered by a graph summary and records its
// digest as the graph's last-seen version.
func (c *Client) graphCall(method, path, contentType string, body []byte) (service.GraphInfo, error) {
	var g service.GraphInfo
	if err := c.do(method, path, contentType, "", body, &g); err != nil {
		return service.GraphInfo{}, err
	}
	c.see(g.ID, g.Digest)
	return g, nil
}

// Load stores g under name (POST /v1/graphs).
func (c *Client) Load(name string, g *graph.Graph) (service.GraphInfo, error) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return service.GraphInfo{}, err
	}
	return c.graphCall("POST", "/v1/graphs?name="+url.QueryEscape(name), "text/plain", buf.Bytes())
}

// Generate has the server build and store a gen.Spec graph.
func (c *Client) Generate(req service.GenerateRequest) (service.GraphInfo, error) {
	body, _ := json.Marshal(req) // plain fields only: encoding cannot fail
	return c.graphCall("POST", "/v1/graphs/generate", "application/json", body)
}

// Graph fetches graph id at its latest version.
func (c *Client) Graph(id string) (service.GraphInfo, error) {
	return c.graphCall("GET", "/v1/graphs/"+id, "", nil)
}

// Versions fetches graph id's retained version window.
func (c *Client) Versions(id string) (service.VersionList, error) {
	var vl service.VersionList
	if err := c.do("GET", "/v1/graphs/"+id+"/versions", "", "", nil, &vl); err != nil {
		return service.VersionList{}, err
	}
	if len(vl.Versions) == 0 {
		return service.VersionList{}, fmt.Errorf("graph %s: no versions reported", id)
	}
	c.see(id, vl.Versions[len(vl.Versions)-1].Digest)
	return vl, nil
}

// Append appends batch to graph id; grow lets its endpoints extend the
// vertex set. The request is conditional on the last version this client
// saw of the graph (none seen: unconditional), so a concurrent writer's
// append fails it with 412 and a retry after a lost response is not
// applied twice.
func (c *Client) Append(id string, batch []graph.Edge, grow bool) (service.AppendResult, error) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeBatch(&buf, batch); err != nil {
		return service.AppendResult{}, err
	}
	path := "/v1/graphs/" + id + "/edges"
	if grow {
		path += "?grow=1"
	}
	c.mu.Lock()
	parent := c.seen[id]
	c.mu.Unlock()
	var res service.AppendResult
	if err := c.do("POST", path, "text/plain", parent, buf.Bytes(), &res); err != nil {
		return service.AppendResult{}, err
	}
	c.see(id, res.Digest)
	return res, nil
}

// Solve runs a solve of graph id with algo and waits for it. A negative
// version solves the latest.
func (c *Client) Solve(id, algo string, version int) (service.LabelingInfo, error) {
	req := service.SolveRequest{Graph: id, Algo: algo, Wait: true}
	if version >= 0 {
		req.Version = &version
	}
	body, _ := json.Marshal(req) // no float option set: encoding cannot fail
	var l service.LabelingInfo
	err := c.do("POST", "/v1/solve", "application/json", "", body, &l)
	return l, err
}

// SolveReplicated solves the latest version of graph id with algo on a
// read target. A labeling is derived state, not replicated state, so
// each replica needs its own solve; replication is asynchronous, so a
// just-created graph may not have reached the replica yet. Errors are
// retried for up to 15 s to wait out that lag, and then returned.
func (c *Client) SolveReplicated(id, algo string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, err := c.Solve(id, algo, -1)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// SameComponent asks whether u and v share a component in algo's
// labeling of graph id's latest version.
func (c *Client) SameComponent(id, algo string, u, v int) (bool, error) {
	var out struct {
		Same bool `json:"same"`
	}
	path := "/v1/query/same-component?graph=" + id + "&algo=" + algo +
		"&u=" + strconv.Itoa(u) + "&v=" + strconv.Itoa(v)
	err := c.do("GET", path, "", "", nil, &out)
	return out.Same, err
}

// Get fetches path and discards the body. A query storm needs only the
// status; parsing every answer would measure the client, not the server.
func (c *Client) Get(path string) error {
	return c.do("GET", path, "", "", nil, nil)
}

// QueryBatch posts a prebuilt /v1/query/batch body, a pure read that any
// replica serves, and like Get discards the answer.
func (c *Client) QueryBatch(body []byte) error {
	return c.do("POST", "/v1/query/batch", "application/json", "", body, nil)
}

// CacheStats is the labeling-cache part of GET /v1/stats.
type CacheStats struct {
	Hits     int64   `json:"cacheHits"`
	Misses   int64   `json:"cacheMisses"`
	HitRatio float64 `json:"cacheHitRatio"`
}

// Stats fetches the server's labeling-cache counters.
func (c *Client) Stats() (CacheStats, error) {
	var s CacheStats
	err := c.do("GET", "/v1/stats", "", "", nil, &s)
	return s, err
}
