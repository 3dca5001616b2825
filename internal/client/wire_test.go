package client_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// kinds maps every key of a decoded JSON object to the JSON kind of its
// value, so a pin catches a renamed key and a value that changed type.
func kinds(obj map[string]any) map[string]string {
	out := make(map[string]string, len(obj))
	for k, v := range obj {
		switch v.(type) {
		case string:
			out[k] = "string"
		case float64:
			out[k] = "number"
		case bool:
			out[k] = "bool"
		case []any:
			out[k] = "array"
		case map[string]any:
			out[k] = "object"
		default:
			out[k] = "null"
		}
	}
	return out
}

// rawJSON sends one request with plain net/http and decodes the 2xx
// response body into a generic map — no typed struct in between, so
// the pins below read what the handlers put on the wire.
func rawJSON(t *testing.T, method, url, body string) map[string]any {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: %q: %v", method, url, raw, err)
	}
	return out
}

func pin(t *testing.T, what string, obj map[string]any, want map[string]string) {
	t.Helper()
	if got := kinds(obj); !reflect.DeepEqual(got, want) {
		t.Errorf("%s keys moved:\n got  %v\n want %v", what, sorted(got), sorted(want))
	}
}

func sorted(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		out = append(out, k+":"+v)
	}
	sort.Strings(out)
	return out
}

// TestWireKeysUnchanged pins the key set (and value kinds) of every JSON
// response the typed client decodes: load, generate, graph, versions,
// append, solve (waited and async) and job. perfbench and any deployed
// client decode these keys, so a moved key fails here, not at run time.
func TestWireKeysUnchanged(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	graphKeys := map[string]string{
		"id": "string", "name": "string", "digest": "string", "baseDigest": "string",
		"version": "number", "n": "number", "m": "number", "components": "number",
	}
	versionKeys := map[string]string{
		"version": "number", "digest": "string", "n": "number", "m": "number",
		"appended": "number", "merges": "number", "components": "number",
	}
	labelingKeys := map[string]string{
		"graph": "string", "version": "number", "algo": "string", "seed": "number",
		"lambda": "number", "memory": "number", "components": "number", "rounds": "number",
		"peakEdges": "number", "cached": "bool", "forwarded": "bool",
	}

	loaded := rawJSON(t, "POST", srv.URL+"/v1/graphs?name=wire", "6 3\n0 1\n1 2\n3 4\n")
	pin(t, "load", loaded, graphKeys)
	id := loaded["id"].(string)
	pin(t, "generate", rawJSON(t, "POST", srv.URL+"/v1/graphs/generate",
		`{"name":"gen","family":"cycle","n":12,"seed":3}`), graphKeys)
	pin(t, "graph", rawJSON(t, "GET", srv.URL+"/v1/graphs/"+id, ""), graphKeys)

	appended := rawJSON(t, "POST", srv.URL+"/v1/graphs/"+id+"/edges", "2 3\n")
	appendKeys := map[string]string{"graph": "string", "applied": "bool"}
	for k, v := range versionKeys {
		appendKeys[k] = v
	}
	pin(t, "append", appended, appendKeys)

	versions := rawJSON(t, "GET", srv.URL+"/v1/graphs/"+id+"/versions", "")
	pin(t, "versions", versions, map[string]string{
		"graph": "string", "latest": "number", "maxVersionGap": "number", "versions": "array",
	})
	for _, v := range versions["versions"].([]any) {
		pin(t, "versions[]", v.(map[string]any), versionKeys)
	}

	pin(t, "solve wait", rawJSON(t, "POST", srv.URL+"/v1/solve",
		`{"graph":"`+id+`","algo":"hashtomin","wait":true}`), labelingKeys)

	// The async answer is the job as submitted. A worker may finish the
	// job before the handler snapshots it, so "result" may or may not be
	// there yet; the two keys every async answer carries are pinned.
	job := rawJSON(t, "POST", srv.URL+"/v1/solve", `{"graph":"`+id+`","algo":"boruvka"}`)
	jobKeys := map[string]string{"id": "string", "status": "string"}
	if _, done := job["result"]; done {
		jobKeys["result"] = "object"
	}
	pin(t, "solve async", job, jobKeys)

	deadline := time.Now().Add(10 * time.Second)
	for job["status"] != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %v", job)
		}
		time.Sleep(5 * time.Millisecond)
		job = rawJSON(t, "GET", srv.URL+"/v1/jobs/"+job["id"].(string), "")
	}
	pin(t, "job", job, map[string]string{"id": "string", "status": "string", "result": "object"})
	pin(t, "job result", job["result"].(map[string]any), labelingKeys)
}
