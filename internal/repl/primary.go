package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/store"
)

// Options configures both ends of the replication feed. The zero value
// selects the defaults.
type Options struct {
	// Registry is the fault seam the feed's network I/O runs through
	// (nil = no injection): the primary's frame writes check the
	// "send:wal" / "send:hb" / "send:snapshot" sites, the replica's
	// connects and body reads check "conn:<stream>" / "recv:<stream>"
	// for streams list, snapshot, wal.
	Registry *fault.Registry
	// Heartbeat is the primary's idle-feed heartbeat cadence (default
	// 500ms). Each heartbeat carries the primary's latest version, so it
	// doubles as the replica's lag signal.
	Heartbeat time.Duration
	// Poll is the replica's graph-discovery cadence (default 1s).
	Poll time.Duration
	// HeartbeatTimeout is the replica's feed watchdog: a stream silent
	// this long is cut and redialed (default 5s; must exceed Heartbeat).
	HeartbeatTimeout time.Duration
	// Logf sinks replication log lines, every one prefixed "repl:"
	// (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	if o.Poll <= 0 {
		o.Poll = time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Primary serves the replication feed off a service's storage engine:
// graph discovery, snapshot transfer, and the per-graph WAL stream. It
// holds no replication state of its own — every byte it ships comes
// straight from store.Tail and store.View, so a primary restart loses
// nothing a replica needs (the feed resumes wherever the replica's
// from= says).
type Primary struct {
	svc *service.Service
	opt Options

	shipped   atomic.Int64 // record frames written to feed streams
	snapshots atomic.Int64 // snapshot transfers served
	streams   atomic.Int64 // live feed streams
}

// NewPrimary attaches a feed server to svc and installs its /v1/stats
// replication reporter.
func NewPrimary(svc *service.Service, opt Options) *Primary {
	p := &Primary{svc: svc, opt: opt.withDefaults()}
	svc.SetReplReporter(p.status)
	return p
}

func (p *Primary) status() service.ReplStatus {
	return service.ReplStatus{
		Role:         "primary",
		Connected:    p.streams.Load() > 0,
		Bootstrapped: true,
		CaughtUp:     true,
		Shipped:      p.shipped.Load(),
		Bootstraps:   p.snapshots.Load(),
	}
}

// Handler mounts the feed endpoints in front of next. Compose it
// OUTSIDE the service's HTTP middleware: a feed stream lives until the
// replica drops it, so it must not hold one of the service's bounded
// admission slots or race its request deadline.
func (p *Primary) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/graphs", p.handleGraphs)
	mux.HandleFunc("GET /v1/repl/{id}/snapshot", p.handleSnapshot)
	mux.HandleFunc("GET /v1/repl/{id}/wal", p.handleWAL)
	mux.Handle("/", next)
	return mux
}

// handleGraphs lists every stored graph with its retained window bounds,
// in the store's first-stored order.
func (p *Primary) handleGraphs(w http.ResponseWriter, r *http.Request) {
	st := p.svc.Store()
	out := []feedGraph{}
	for _, meta := range st.List() {
		vers, err := st.Versions(meta.ID)
		if err != nil || len(vers) == 0 {
			continue // evicted between List and Versions
		}
		out = append(out, feedGraph{Meta: meta, Latest: vers[len(vers)-1].Version, Oldest: vers[0].Version})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleSnapshot ships the graph at its OLDEST retained version, in the
// self-verifying WCCM1 format, with the store identity and lineage entry
// embedded as the meta blob. Oldest — not latest — so the entire
// retained batch window remains tailable on top of the transferred
// state: the replica lands at Oldest and the feed's from=Oldest covers
// everything newer, however long the transfer took. The view is pinned
// for the duration of the write, so a concurrent eviction or compaction
// cannot unmap the bytes mid-transfer.
func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := p.svc.Store()
	meta, ok := st.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("repl: unknown graph %s", id), http.StatusNotFound)
		return
	}
	vers, err := st.Versions(id)
	if err != nil || len(vers) == 0 {
		http.Error(w, fmt.Sprintf("repl: unknown graph %s", id), http.StatusNotFound)
		return
	}
	oldest := vers[0]
	view, release, err := st.View(id, oldest.Version)
	if err != nil {
		http.Error(w, fmt.Sprintf("repl: snapshot %s@%d: %v", id, oldest.Version, err), http.StatusNotFound)
		return
	}
	defer release()
	mj, err := json.Marshal(snapMeta{Meta: meta, Version: oldest})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	out := io.Writer(w)
	if p.opt.Registry != nil {
		out = fault.InjectWriter(out, p.opt.Registry, "send:snapshot")
	}
	if err := graph.WriteMappedView(out, view, mj); err != nil {
		// Headers are gone; the truncated body fails the replica's WCCM1
		// digest check, which is the recovery path that matters.
		p.opt.Logf("repl: snapshot %s@%d transfer failed: %v", id, oldest.Version, err)
		return
	}
	p.snapshots.Add(1)
	p.opt.Logf("repl: shipped snapshot %s@%d to %s", id, oldest.Version, r.RemoteAddr)
}

// handleWAL streams batch records newer than ?from, then live ones as
// appends land, interleaved with heartbeats. Each record frame is one
// Write through the "send:wal" fault site — so an injected torn/err rule
// with Hit=k tears the stream at exactly the k-th shipped record —
// and heartbeats go through "send:hb", keeping record-boundary fault
// schedules independent of heartbeat timing.
func (p *Primary) handleWAL(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from, err := strconv.Atoi(r.URL.Query().Get("from"))
	if err != nil || from < 0 {
		http.Error(w, "repl: bad or missing from= version", http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "repl: streaming unsupported", http.StatusInternalServerError)
		return
	}
	st := p.svc.Store()
	// Arm the pulse BEFORE the first Tail: an append landing between the
	// two closes this channel, so the select below wakes immediately
	// instead of sleeping a heartbeat with records pending.
	pulse := p.svc.AppendPulse()
	records, err := st.Tail(id, from)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			if _, ok := st.Get(id); !ok {
				http.Error(w, fmt.Sprintf("repl: unknown graph %s", id), http.StatusNotFound)
			} else {
				// The catch-up window moved past from: the batches the
				// replica needs were compacted away. 410, not 404 — the
				// graph exists, this position is unservable forever.
				http.Error(w, fmt.Sprintf("repl: version %d no longer tailable: %v", from, err), http.StatusGone)
			}
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	recOut, hbOut := io.Writer(w), io.Writer(w)
	if p.opt.Registry != nil {
		recOut = fault.InjectWriter(recOut, p.opt.Registry, "send:wal")
		hbOut = fault.InjectWriter(hbOut, p.opt.Registry, "send:hb")
	}
	p.streams.Add(1)
	defer p.streams.Add(-1)
	p.opt.Logf("repl: feed %s: stream opened from version %d (%s)", id, from, r.RemoteAddr)
	hb := time.NewTicker(p.opt.Heartbeat)
	defer hb.Stop()
	pos := from
	var hbuf []byte
	for {
		for _, rec := range records {
			data, err := store.EncodeRecord(rec.Info, rec.Edges)
			if err != nil {
				p.opt.Logf("repl: feed %s: encode @%d: %v", id, rec.Info.Version, err)
				return
			}
			if _, err := recOut.Write(data); err != nil {
				p.opt.Logf("repl: feed %s: stream cut at version %d: %v", id, pos, err)
				return
			}
			pos = rec.Info.Version
			p.shipped.Add(1)
		}
		// A heartbeat after every drain tells the replica the primary's
		// position — records alone cannot distinguish "caught up" from
		// "more coming".
		hbuf = appendHeartbeat(hbuf[:0], pos)
		if _, err := hbOut.Write(hbuf); err != nil {
			p.opt.Logf("repl: feed %s: stream cut at version %d: %v", id, pos, err)
			return
		}
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-pulse:
		case <-hb.C:
		}
		pulse = p.svc.AppendPulse()
		records, err = st.Tail(id, pos)
		if err != nil {
			// Evicted underneath the stream, or the window advanced past a
			// position we just served (not possible while pos is latest,
			// but eviction is): end the stream, the replica re-resolves.
			p.opt.Logf("repl: feed %s: tail at %d failed, closing stream: %v", id, pos, err)
			return
		}
	}
}
