package main

import (
	"bufio"
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// span is one timed call into a layer. Spans of one HTTP request share Req;
// Parent is the span that caused this one (0 = none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0   time.Time
	ids  atomic.Int64
	reqs atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// start opens a span; finish closes and records it.
func (r *recorder) start(name string, parent int64, req uint64) span {
	return span{ID: r.ids.Add(1), Parent: parent, Req: req, Name: name, Start: r.now()}
}

func (r *recorder) finish(s span) span {
	s.End = r.now()
	r.add(s)
	return s
}

// add records a finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns a copy of every recorded span.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// timeCall records one span around fn.
func (r *recorder) timeCall(name string, parent int64, fn func()) span {
	s := r.start(name, parent, 0)
	fn()
	return r.finish(s)
}

// named returns the recorded spans called name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// adopt makes each orphan span whose name has prefix childPrefix a child
// of the innermost span named parentName that covers it in time. The
// store performs its filesystem calls without a request context, so the
// parent of an FS span is known only by when it ran; appends are
// serialized, so containment is unambiguous.
func (r *recorder) adopt(childPrefix, parentName string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var parents []span
	for _, s := range r.spans {
		if s.Name == parentName {
			parents = append(parents, s)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i].Start < parents[j].Start })
	for i := range r.spans {
		c := &r.spans[i]
		if c.Parent != 0 || !strings.HasPrefix(c.Name, childPrefix) {
			continue
		}
		k := sort.Search(len(parents), func(k int) bool { return parents[k].Start > c.Start }) - 1
		if k >= 0 && parents[k].End >= c.End {
			c.Parent, c.Req = parents[k].ID, parents[k].Req
		}
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// write saves every span as one JSON line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request headers that carry the client's span into the handler.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

// traceHandler is middleware that records a span around every request the
// service handler serves, named after its route and parented to the
// client's span.
func traceHandler(r *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseInt(req.Header.Get(hdrSpan), 10, 64)
		id, _ := strconv.ParseUint(req.Header.Get(hdrReq), 10, 64)
		s := r.start(routeName(req), parent, id)
		next.ServeHTTP(w, req)
		r.finish(s)
	})
}

func routeName(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/graphs" && req.Method == http.MethodPost:
		return "service.load"
	case strings.HasSuffix(p, "/edges"):
		return "service.append"
	case p == "/v1/solve":
		return "service.solve"
	case p == "/v1/query/same-component":
		return "service.query"
	case p == "/v1/query/batch":
		return "service.batch"
	}
	return "service.other"
}

// fileClass buckets a store path by what it holds.
func fileClass(path string) string {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "wal"):
		return "wal"
	case strings.HasPrefix(base, "snapshot"):
		return "snapshot"
	}
	return "other"
}

// fsStats are the filesystem totals of a timingFS.
type fsStats struct {
	bytes       map[string]int64 // bytes written, by file class
	syncs       map[string][]time.Duration
	compactions []time.Duration // snapshot rewrites, first write to rename
}

// timingFS is a fault.FS over the real filesystem that records a span for
// every write, sync and rename, and totals them by file class.
type timingFS struct {
	fault.FS
	rec  *recorder
	name string // span prefix, e.g. "fs.primary"

	mu      sync.Mutex
	st      fsStats
	pending map[string]int64 // snapshot temp path -> first-open time
}

func newTimingFS(rec *recorder, name string) *timingFS {
	t := &timingFS{FS: fault.OS{}, rec: rec, name: name}
	t.reset()
	return t
}

// reset clears the totals, so that set-up writes do not count.
func (t *timingFS) reset() {
	t.mu.Lock()
	t.st = fsStats{bytes: map[string]int64{}, syncs: map[string][]time.Duration{}}
	t.pending = map[string]int64{}
	t.mu.Unlock()
}

func (t *timingFS) stats() fsStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := fsStats{bytes: map[string]int64{}, syncs: map[string][]time.Duration{}}
	for k, v := range t.st.bytes {
		out.bytes[k] = v
	}
	for k, v := range t.st.syncs {
		out.syncs[k] = append([]time.Duration(nil), v...)
	}
	out.compactions = append(out.compactions, t.st.compactions...)
	return out
}

func (t *timingFS) OpenFile(path string, flag int, perm fs.FileMode) (fault.File, error) {
	f, err := t.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	class := fileClass(path)
	if class == "snapshot" {
		t.mu.Lock()
		if _, ok := t.pending[path]; !ok {
			t.pending[path] = t.rec.now()
		}
		t.mu.Unlock()
	}
	return &timingFile{File: f, fs: t, class: class}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	s := t.rec.start(t.name+".rename", 0, 0)
	err := t.FS.Rename(oldpath, newpath)
	s = t.rec.finish(s)
	t.mu.Lock()
	if began, ok := t.pending[oldpath]; ok && fileClass(newpath) == "snapshot" {
		t.st.compactions = append(t.st.compactions, time.Duration(s.End-began))
		delete(t.pending, oldpath)
	}
	t.mu.Unlock()
	return err
}

type timingFile struct {
	fault.File
	fs    *timingFS
	class string
}

func (f *timingFile) Write(p []byte) (int, error) {
	s := f.fs.rec.start(f.fs.name+".write."+f.class, 0, 0)
	n, err := f.File.Write(p)
	f.fs.rec.finish(s)
	f.fs.mu.Lock()
	f.fs.st.bytes[f.class] += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *timingFile) Sync() error {
	s := f.fs.rec.start(f.fs.name+".sync."+f.class, 0, 0)
	err := f.File.Sync()
	s = f.fs.rec.finish(s)
	f.fs.mu.Lock()
	f.fs.st.syncs[f.class] = append(f.fs.st.syncs[f.class], s.dur())
	f.fs.mu.Unlock()
	return err
}
