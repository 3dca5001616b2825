package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/graph"
)

// client is the benchmark's HTTP client. Its transport keeps at most conns
// connections to the server, so the load never exceeds the goroutines the
// workload runs.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// graphInfo is the graph JSON the service returns for loads and lookups.
type graphInfo struct {
	ID         string `json:"id"`
	Digest     string `json:"digest"`
	Version    int    `json:"version"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	Components int    `json:"components"`
}

// do sends one request and decodes a 200 JSON response into out.
func (c *client) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

func (c *client) load(name string, text []byte) (graphInfo, error) {
	var g graphInfo
	err := c.do("POST", "/v1/graphs?name="+name, text, &g)
	return g, err
}

func (c *client) graph(id string) (graphInfo, error) {
	var g graphInfo
	err := c.do("GET", "/v1/graphs/"+id, nil, &g)
	return g, err
}

// solve runs a blocking solve of the latest version.
func (c *client) solve(id, algoName string, seed uint64) error {
	body, _ := json.Marshal(map[string]any{"graph": id, "algo": algoName, "seed": seed, "wait": true})
	return c.do("POST", "/v1/solve", body, nil)
}

func (c *client) appendBatch(id string, body []byte) (graphInfo, error) {
	var v graphInfo
	err := c.do("POST", "/v1/graphs/"+id+"/edges", body, &v)
	return v, err
}

// querier sends same-component and batch queries from one goroutine,
// reusing its buffers so that the client adds as little work as it can to
// the host it shares with the server.
type querier struct {
	c    *client
	id   string
	url  []byte
	body bytes.Buffer
	req  bytes.Buffer
}

func (c *client) querier(id string) *querier { return &querier{c: c, id: id} }

// same asks GET /v1/query/same-component for (u, v).
func (q *querier) same(u, v graph.Vertex) (bool, error) {
	q.url = append(q.url[:0], q.c.base...)
	q.url = append(q.url, "/v1/query/same-component?graph="...)
	q.url = append(q.url, q.id...)
	q.url = append(q.url, "&u="...)
	q.url = strconv.AppendInt(q.url, int64(u), 10)
	q.url = append(q.url, "&v="...)
	q.url = strconv.AppendInt(q.url, int64(v), 10)
	resp, err := q.c.hc.Get(string(q.url))
	if err != nil {
		return false, err
	}
	q.body.Reset()
	_, err = q.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("same-component: %s: %s", resp.Status, bytes.TrimSpace(q.body.Bytes()))
	}
	b := q.body.Bytes()
	switch {
	case bytes.Contains(b, []byte(`"same":true`)):
		return true, nil
	case bytes.Contains(b, []byte(`"same":false`)):
		return false, nil
	}
	return false, fmt.Errorf("same-component: unexpected body %q", b)
}

// batchResult is the decoded POST /v1/query/batch response.
type batchResult struct {
	Version int           `json:"version"`
	Results []batchAnswer `json:"results"`
}

type batchAnswer struct {
	Same  *bool  `json:"same"`
	Error string `json:"error"`
}

// batch asks POST /v1/query/batch for same-component on every pair, at the
// latest version, and decodes the answers into out.
func (q *querier) batch(ps [][2]graph.Vertex, out *batchResult) error {
	q.req.Reset()
	q.req.WriteString(`{"graph":"`)
	q.req.WriteString(q.id)
	q.req.WriteString(`","queries":[`)
	var num []byte
	for i, p := range ps {
		if i > 0 {
			q.req.WriteByte(',')
		}
		q.req.WriteString(`{"op":"same-component","u":`)
		num = strconv.AppendInt(num[:0], int64(p[0]), 10)
		q.req.Write(num)
		q.req.WriteString(`,"v":`)
		num = strconv.AppendInt(num[:0], int64(p[1]), 10)
		q.req.Write(num)
		q.req.WriteByte('}')
	}
	q.req.WriteString(`]}`)
	resp, err := q.c.hc.Post(q.c.base+"/v1/query/batch", "application/json", bytes.NewReader(q.req.Bytes()))
	if err != nil {
		return err
	}
	q.body.Reset()
	_, err = q.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("batch: %s: %s", resp.Status, bytes.TrimSpace(q.body.Bytes()))
	}
	out.Results = out.Results[:0]
	if err := json.Unmarshal(q.body.Bytes(), out); err != nil {
		return fmt.Errorf("batch: decode: %w", err)
	}
	if len(out.Results) != len(ps) {
		return fmt.Errorf("batch: %d answers for %d queries", len(out.Results), len(ps))
	}
	return nil
}

// checkBatch verifies every answer of a batch against labels.
func checkBatch(labels []graph.Vertex, ps [][2]graph.Vertex, res *batchResult) error {
	for i, r := range res.Results {
		if r.Error != "" || r.Same == nil {
			return fmt.Errorf("batch item %d: error %q", i, r.Error)
		}
		if err := checkSame(labels, ps[i][0], ps[i][1], *r.Same); err != nil {
			return err
		}
	}
	return nil
}
