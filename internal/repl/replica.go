package repl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/retry"
	"repro/internal/service"
	"repro/internal/store"
)

// Replica tails a primary's replication feed into a local service: it
// discovers the primary's graphs, bootstraps each from a snapshot
// transfer, then streams batch records — verifying every one against
// the chained version digests before applying (service.ApplyReplicated
// refuses anything that does not extend the local chain bit-exactly).
// The local service serves the full read path the whole time; client
// writes bounce with 421 (service.Config.ReplicaOf). All durable state
// lives in the replica's own store, so a restarted replica resumes
// tailing from its durable position — the feed's from= is simply its
// local latest version.
type Replica struct {
	svc     *service.Service
	primary string
	opt     Options
	client  *http.Client
	lagMax  int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu         sync.Mutex
	graphs     map[string]*gstate
	listOK     bool // last discovery poll reached the primary
	everListed bool
	caughtUp   bool // last readiness verdict, for transition logging

	verified   atomic.Int64
	rejected   atomic.Int64
	reconnects atomic.Int64
	bootstraps atomic.Int64
}

// gstate is one tracked graph's replication position. Fields are guarded
// by Replica.mu; the tailer goroutine owns the lifecycle.
type gstate struct {
	id           string
	local        int // local latest version
	primaryPos   int // primary latest, from heartbeats and discovery
	bootstrapped bool
	connected    bool // a feed stream is live
	cancel       context.CancelFunc
}

// Start attaches a replica to svc, tailing the primary at baseURL. The
// service must have been opened with Config.ReplicaOf set (the write
// gate) — Start refuses otherwise, because a writable service tailing a
// feed could fork its lineage with one local append. Close stops every
// tailer and waits for them.
func Start(svc *service.Service, baseURL string, opt Options) (*Replica, error) {
	cfg := svc.Config()
	if cfg.ReplicaOf == "" {
		return nil, errors.New("repl: service is not configured as a replica (Config.ReplicaOf is empty)")
	}
	opt = opt.withDefaults()
	transport := http.DefaultTransport
	if opt.Registry != nil {
		transport = fault.InjectTransport(transport, opt.Registry, streamName)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		svc:     svc,
		primary: strings.TrimRight(baseURL, "/"),
		opt:     opt,
		client:  &http.Client{Transport: transport},
		lagMax:  cfg.ReplLagMax,
		ctx:     ctx,
		cancel:  cancel,
		graphs:  make(map[string]*gstate),
	}
	svc.SetReplReporter(r.status)
	opt.Logf("repl: replica of %s: serving reads, refusing client writes with 421 (read-only)", r.primary)
	r.wg.Add(1)
	go r.manage()
	return r, nil
}

// streamName maps feed requests onto fault-site stream names — fixed
// names, not URLs, so fault specs enumerate the same sites whatever
// graphs exist.
func streamName(req *http.Request) string {
	switch {
	case strings.HasSuffix(req.URL.Path, "/wal"):
		return "wal"
	case strings.HasSuffix(req.URL.Path, "/snapshot"):
		return "snapshot"
	case strings.HasSuffix(req.URL.Path, "/v1/repl/graphs"):
		return "list"
	}
	return ""
}

// Close stops discovery and every tailer, waits for them, and leaves the
// local store at whatever position replication reached — the durable
// state a restart resumes from.
func (r *Replica) Close() {
	r.cancel()
	r.wg.Wait()
}

// manage is the discovery loop: poll the primary's graph list, spawn a
// tailer per new graph, drop graphs the primary no longer serves.
func (r *Replica) manage() {
	defer r.wg.Done()
	t := time.NewTicker(r.opt.Poll)
	defer t.Stop()
	r.refresh()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			r.refresh()
		}
	}
}

func (r *Replica) refresh() {
	list, err := r.fetchGraphs()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		if r.listOK || !r.everListed {
			r.opt.Logf("repl: primary %s unreachable: %v", r.primary, err)
		}
		r.listOK = false
		r.updateReadinessLocked()
		return
	}
	if !r.listOK {
		r.opt.Logf("repl: connected to primary %s (%d graphs)", r.primary, len(list))
	}
	r.listOK, r.everListed = true, true
	seen := make(map[string]bool, len(list))
	for _, fg := range list {
		id := fg.Meta.ID
		seen[id] = true
		if gs, ok := r.graphs[id]; ok {
			if fg.Latest > gs.primaryPos {
				gs.primaryPos = fg.Latest
			}
			continue
		}
		gctx, gcancel := context.WithCancel(r.ctx)
		gs := &gstate{id: id, primaryPos: fg.Latest, cancel: gcancel}
		r.graphs[id] = gs
		r.wg.Add(1)
		go r.tail(gctx, gs)
	}
	// Graphs the primary dropped (evicted under MaxGraphs pressure, or an
	// operator removed them) are dropped here too; sorted so the walk —
	// and its log lines — are deterministic.
	ids := make([]string, 0, len(r.graphs))
	for id := range r.graphs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if seen[id] {
			continue
		}
		r.graphs[id].cancel()
		delete(r.graphs, id)
		r.svc.DropReplicated(id)
		r.opt.Logf("repl: %s: dropped (no longer on primary)", id)
	}
	r.updateReadinessLocked()
}

func (r *Replica) fetchGraphs() ([]feedGraph, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, r.primary+"/v1/repl/graphs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("repl: graph list: %s", resp.Status)
	}
	var list []feedGraph
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list, nil
}

// tail drives one graph's replication: bootstrap if needed, stream the
// feed, reconnect with jittered backoff on any failure. The backoff
// resets whenever a stream made progress, so one long-lived connection
// failing after hours does not pay an accumulated penalty.
func (r *Replica) tail(ctx context.Context, gs *gstate) {
	defer r.wg.Done()
	pol := retry.New(1, 50*time.Millisecond, 2*time.Second, 0x5eed1)
	attempt := 0
	for {
		progressed, err := r.stream(ctx, gs)
		if ctx.Err() != nil {
			return
		}
		r.reconnects.Add(1)
		if progressed {
			attempt = 0
		}
		if err != nil {
			r.opt.Logf("repl: %s: feed disconnected (attempt %d): %v", gs.id, attempt, err)
		}
		t := time.NewTimer(pol.Delay(attempt, 0))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		attempt++
	}
}

// stream runs one feed connection to completion: resolve the local
// position (bootstrapping when the graph is absent or unservable),
// connect from it, and apply verified frames until the stream breaks.
// progressed reports whether any frame arrived — the backoff-reset
// signal.
func (r *Replica) stream(ctx context.Context, gs *gstate) (progressed bool, err error) {
	local, err := r.localVersion(ctx, gs)
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/repl/%s/wal?from=%s", r.primary, gs.id, strconv.Itoa(local)), nil)
	if err != nil {
		return false, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The primary compacted past our position: the catch-up batches
		// are gone, only a fresh snapshot can rejoin the chain.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		r.opt.Logf("repl: %s: fell out of the catch-up window at version %d; re-bootstrapping", gs.id, local)
		if err := r.bootstrap(ctx, gs); err != nil {
			return false, err
		}
		return true, fmt.Errorf("repl: %s: re-bootstrapped, reconnecting feed", gs.id)
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("repl: feed %s: %s", gs.id, resp.Status)
	}

	r.mu.Lock()
	gs.connected = true
	r.updateReadinessLocked()
	r.mu.Unlock()
	r.opt.Logf("repl: %s: tailing feed from version %d", gs.id, local)
	defer func() {
		r.mu.Lock()
		gs.connected = false
		r.updateReadinessLocked()
		r.mu.Unlock()
	}()

	// Watchdog: the primary heartbeats even an idle feed, so a silent
	// stream means a dead or partitioned peer — cut the body, which
	// unblocks the read below with an error, and redial.
	wd := time.AfterFunc(r.opt.HeartbeatTimeout, func() { resp.Body.Close() })
	defer wd.Stop()

	br := bufio.NewReader(resp.Body)
	for {
		f, err := readFrame(br)
		if err != nil {
			if errors.Is(err, errCorruptFrame) {
				r.rejected.Add(1)
				r.opt.Logf("repl: %s: rejected corrupt record (frame digest mismatch); reconnecting to re-fetch", gs.id)
			}
			return progressed, err
		}
		progressed = true
		wd.Reset(r.opt.HeartbeatTimeout)
		if f.heartbeat {
			r.advance(gs, -1, f.latest)
			continue
		}
		// Verification before application: ApplyReplicated checks that the
		// record extends the local chain (contiguous version, digest chains
		// over exactly this batch) before any state changes. A record that
		// fails is dropped here and re-fetched on reconnect — it is never
		// half-applied.
		if err := r.svc.ApplyReplicated(gs.id, f.batch, f.info); err != nil {
			r.rejected.Add(1)
			r.opt.Logf("repl: %s: rejected record @%d: %v", gs.id, f.info.Version, err)
			return progressed, err
		}
		r.verified.Add(1)
		r.advance(gs, f.info.Version, f.info.Version)
	}
}

// localVersion resolves the position to tail from, bootstrapping the
// graph when the local store has never held it.
func (r *Replica) localVersion(ctx context.Context, gs *gstate) (int, error) {
	for range 2 {
		vers, err := r.svc.Store().Versions(gs.id)
		if err == nil && len(vers) > 0 {
			local := vers[len(vers)-1].Version
			r.mu.Lock()
			gs.local = local
			gs.bootstrapped = true
			r.mu.Unlock()
			return local, nil
		}
		if err != nil && !errors.Is(err, store.ErrNotFound) {
			return 0, err
		}
		if err := r.bootstrap(ctx, gs); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("repl: %s: no local version after bootstrap", gs.id)
}

// bootstrap transfers the primary's snapshot and installs it as local
// state. The WCCM1 open verifies the transfer end to end — header,
// adjacency, offsets, and embedded meta are all digest-covered — so a
// truncated download or a flipped bit fails here, before anything is
// installed.
func (r *Replica) bootstrap(ctx context.Context, gs *gstate) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.primary+"/v1/repl/"+gs.id+"/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("repl: snapshot %s: %s", gs.id, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("repl: snapshot %s download: %w", gs.id, err)
	}
	mg, err := graph.OpenMappedSource(graph.NewBytesSource(data))
	if err != nil {
		r.rejected.Add(1)
		return fmt.Errorf("repl: snapshot %s rejected (transfer verification failed): %w", gs.id, err)
	}
	var sm snapMeta
	if err := json.Unmarshal(mg.Meta(), &sm); err != nil {
		return fmt.Errorf("repl: snapshot %s meta: %w", gs.id, err)
	}
	if sm.Meta.ID != gs.id {
		return fmt.Errorf("repl: snapshot for %s arrived on the %s transfer", sm.Meta.ID, gs.id)
	}
	if err := r.svc.BootstrapReplicated(sm.Meta, mg, sm.Version); err != nil {
		return fmt.Errorf("repl: install snapshot %s@%d: %w", gs.id, sm.Version.Version, err)
	}
	r.bootstraps.Add(1)
	r.mu.Lock()
	gs.local = sm.Version.Version
	if sm.Version.Version > gs.primaryPos {
		gs.primaryPos = sm.Version.Version
	}
	gs.bootstrapped = true
	r.updateReadinessLocked()
	r.mu.Unlock()
	r.opt.Logf("repl: %s: bootstrapped from snapshot at version %d (n=%d m=%d)", gs.id, sm.Version.Version, sm.Version.N, sm.Version.M)
	return nil
}

// advance records a position update (local < 0 leaves the local side
// untouched) and re-evaluates readiness.
func (r *Replica) advance(gs *gstate, local, primaryPos int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if local > gs.local {
		gs.local = local
	}
	if primaryPos > gs.primaryPos {
		gs.primaryPos = primaryPos
	}
	r.updateReadinessLocked()
}

// statusLocked assembles the ReplStatus under r.mu.
func (r *Replica) statusLocked() service.ReplStatus {
	rs := service.ReplStatus{
		Role:       "replica",
		Primary:    r.primary,
		Connected:  r.listOK,
		LagMax:     r.lagMax,
		Verified:   r.verified.Load(),
		Rejected:   r.rejected.Load(),
		Reconnects: r.reconnects.Load(),
		Bootstraps: r.bootstraps.Load(),
	}
	ids := make([]string, 0, len(r.graphs))
	for id := range r.graphs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	bootstrapped := r.everListed // never having seen the primary's list is not "bootstrapped"
	for _, id := range ids {
		gs := r.graphs[id]
		lag := gs.primaryPos - gs.local
		if lag < 0 {
			lag = 0
		}
		if !gs.bootstrapped {
			bootstrapped = false
		}
		if lag > rs.MaxLag {
			rs.MaxLag = lag
		}
		rs.Graphs = append(rs.Graphs, service.ReplGraphStatus{ID: id, Local: gs.local, Primary: gs.primaryPos, Lag: lag})
	}
	rs.Bootstrapped = bootstrapped
	rs.CaughtUp = rs.Connected && bootstrapped && (r.lagMax < 0 || rs.MaxLag <= r.lagMax)
	return rs
}

func (r *Replica) status() service.ReplStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked()
}

// updateReadinessLocked logs caught-up/fell-behind transitions — the
// exact moments /readyz flips — so an operator can line up load-balancer
// behavior with the replication log.
func (r *Replica) updateReadinessLocked() {
	rs := r.statusLocked()
	if rs.CaughtUp == r.caughtUp {
		return
	}
	r.caughtUp = rs.CaughtUp
	if rs.CaughtUp {
		r.opt.Logf("repl: caught up (max lag %d <= %d); /readyz now 200", rs.MaxLag, r.lagMax)
	} else {
		r.opt.Logf("repl: not caught up (connected=%v bootstrapped=%v max lag %d, bound %d); /readyz now 503",
			rs.Connected, rs.Bootstrapped, rs.MaxLag, r.lagMax)
	}
}
