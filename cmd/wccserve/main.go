// Command wccserve runs the connectivity query service: an HTTP+JSON
// front-end over the internal/service layer — load or generate graphs,
// solve them asynchronously with any registered algorithm, and answer
// same-component / component-size / component-count queries in O(1) from
// the labeling cache.
//
// Usage:
//
//	wccserve -addr :8080 -job-workers 2 -cache-entries 64
//	wccserve -addr :8080 -data-dir /var/lib/wcc     # durable across restarts
//	wccserve -addr :8080 -pprof localhost:6060      # profiling sidecar listener
//
//	curl -X POST --data-binary @g.txt 'localhost:8080/v1/graphs?name=g'
//	curl -X POST -d '{"family":"union","n":0,"d":8,"sizes":[60,40],"seed":3}' \
//	     localhost:8080/v1/graphs/generate
//	curl -X POST -d '{"graph":"g-...","algo":"wcc","lambda":0.3,"wait":true}' \
//	     localhost:8080/v1/solve
//	curl 'localhost:8080/v1/query/same-component?graph=g-...&lambda=0.3&u=0&v=9'
//	printf '0 9\n3 4\n' | curl -X POST --data-binary @- \
//	     'localhost:8080/v1/graphs/g-.../edges'
//	curl 'localhost:8080/v1/graphs/g-.../versions'
//	curl 'localhost:8080/v1/stats'
//
// Solves default to the native shared-memory solver ("parallel",
// internal/parallel) — Afforest-style sampling plus a lock-free
// concurrent union-find that saturates the local cores instead of
// simulating an MPC cluster. The paper algorithms stay selectable per
// request ("algo":"wcc", ?algo=sublinear, ...) and remain the
// verification path (wccstream -verify cross-checks against them).
// -default-algo swaps what an algo-less request means; labelings are
// cached per algorithm, so the switch changes which cache entries those
// requests hit, never their correctness.
//
// Graphs are versioned: every accepted edge batch bumps the version and
// incrementally updates cached labelings (see internal/service/README.md
// and internal/dynamic/README.md); -max-version-gap bounds the retained
// window and the fast-forward distance. cmd/wccstream replays churn
// traces against a running server.
//
// With -data-dir, graph state is durable (internal/store): every graph
// keeps a WCCM1 snapshot plus an fsync'd append-only edge-batch WAL
// under the directory, digest-verified and replayed on boot, so a
// restarted server answers the same queries — same IDs, versions, and
// chained digests — it did before SIGTERM. Solves run straight off the
// snapshot's mapping, so the adjacency never becomes heap-resident.
// Without it, state is in-memory and dies with the process.
//
// -pprof exposes net/http/pprof on a SEPARATE listener (off by default),
// so profiling endpoints are never reachable through the service port —
// bind it to localhost and point `go tool pprof` at
// http://localhost:6060/debug/pprof/profile while wccload drives traffic.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener stops,
// in-flight requests get a drain window (-drain), and the solve workers
// get -drain-timeout to finish their current jobs; jobs still running
// after that are abandoned and logged rather than allowed to block exit.
//
// The service degrades instead of dying under pressure: admission
// control (-max-inflight/-admission-queue) sheds overload with 429 +
// Retry-After, per-request deadlines (-request-timeout) bound handler
// time, transient store failures are retried (-append-retries), and a
// persistently failing store latches read-only mode (503 for writes,
// /readyz not-ready) until a background probe sees the disk heal. See
// internal/service/README.md, "Operating under failure".
//
// Replication (-replica-of) turns a second wccserve into a read-only
// hot standby: it bootstraps every graph from the primary's snapshot
// transfer, tails the primary's per-graph WAL feed (each shipped record
// is verified against the chained version digests before it is
// applied), persists through its own -data-dir, and serves the full
// read path while refusing writes with 421 pointing at the primary.
// /readyz on a replica reports 503 until replication is connected,
// bootstrapped, and within -repl-lag-max versions of the primary on
// every graph — so a load balancer only routes to a standby whose
// answers are fresh. Every wccserve (primary or replica) serves the
// feed under /v1/repl, so standbys can be chained. See
// internal/service/README.md, "Replication & failover".
//
// -fault-spec arms deterministic fault injection inside the durable
// store's filesystem layer and the replication feed's network layer
// (internal/fault) — a chaos-testing hook for rehearsing crash
// recovery, torn replication streams, and degraded mode; never set in
// production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/repl"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wccserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		dataDir     = flag.String("data-dir", "", "durable storage directory (snapshot + WAL per graph, replayed on boot); empty = in-memory only")
		jobWorkers  = flag.Int("job-workers", 2, "concurrent solve jobs")
		cacheSize   = flag.Int("cache-entries", 64, "labeling cache capacity (entries)")
		jobHistory  = flag.Int("job-history", 0, "completed jobs kept queryable via /v1/jobs (0 = default 256)")
		simWorkers  = flag.Int("workers", 0, "default simulator workers per solve: 0/1 sequential, k>1 bounded pool, -1 GOMAXPROCS; the native parallel solver reads 0 as all cores (never affects results)")
		defaultAlgo = flag.String("default-algo", "parallel", "algorithm used when a request does not name one (see /v1/algorithms; changing it re-keys algo-less cache entries, never corrupts them)")
		maxVerts    = flag.Int("max-vertices", 0, "largest accepted/generated graph in vertices (0 = default 2^22, negative = unlimited)")
		maxEdges    = flag.Int("max-edges", 0, "largest accepted/generated graph in edges (0 = default 2^24, negative = unlimited)")
		maxGraphs   = flag.Int("max-graphs", 0, "graph-store capacity, least recently accessed evicted first (0 = default 64, negative = unlimited)")
		maxVerGap   = flag.Int("max-version-gap", 0, "retained versions per graph and the largest append gap a cached labeling is fast-forwarded across before a full re-solve is required (0 = default 64)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		drainSolve  = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown wait for in-flight solve jobs; jobs still running after it are abandoned and logged (0 = wait forever)")
		pprofAddr   = flag.String("pprof", "", "expose net/http/pprof on this separate listener (e.g. localhost:6060); empty = disabled")
		maxInflight = flag.Int("max-inflight", 0, "admission control: concurrent request cap (0 = default 256, negative = unlimited)")
		admitQueue  = flag.Int("admission-queue", 0, "requests allowed to wait for an admission slot before shedding with 429 (0 = default max-inflight, negative = shed immediately)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline (0 = default 30s, negative = disabled)")
		appendRetry = flag.Int("append-retries", 0, "retries with jittered backoff for transient store failures on the append path (0 = default 2, negative = none)")
		faultSpec   = flag.String("fault-spec", "", "fault-injection spec for the storage filesystem and the replication network, e.g. 'sync:wal.log#3=crash,send:wal#2=torn,conn:list~0.1=eio' (testing only; filesystem sites require -data-dir)")
		faultSeed   = flag.Uint64("fault-seed", 1, "seed for probabilistic fault-injection rules")
		replicaOf   = flag.String("replica-of", "", "run as a read-only hot standby of the primary wccserve at this base URL (e.g. http://primary:8080): tail its replication feed, refuse client writes with 421, gate /readyz on replication lag")
		replLagMax  = flag.Int("repl-lag-max", 0, "versions a replica may trail the primary on any graph before /readyz reports 503 (0 = default 8, negative = never gate)")
	)
	flag.Parse()

	// One fault registry serves both seams: filesystem sites (write:/
	// sync:/...) are injected into the durable store when -data-dir is
	// set, network sites (conn:/recv:/send:) into the replication feed's
	// transport and frame writers.
	var fs fault.FS
	var reg *fault.Registry
	if *faultSpec != "" {
		var err error
		reg, err = fault.ParseSpec(*faultSpec, *faultSeed)
		if err != nil {
			return fmt.Errorf("bad -fault-spec: %w", err)
		}
		reg.Logf = log.Printf
		if *dataDir != "" {
			fs = fault.Inject(fault.OS{}, reg)
		}
		log.Printf("wccserve: FAULT INJECTION ARMED: %s (seed %d) — not for production", *faultSpec, *faultSeed)
	}

	svc, err := service.Open(service.Config{
		JobWorkers:     *jobWorkers,
		CacheEntries:   *cacheSize,
		JobHistory:     *jobHistory,
		SimWorkers:     *simWorkers,
		DefaultAlgo:    *defaultAlgo,
		MaxVertices:    *maxVerts,
		MaxEdges:       *maxEdges,
		MaxGraphs:      *maxGraphs,
		MaxVersionGap:  *maxVerGap,
		DataDir:        *dataDir,
		FS:             fs,
		MaxInflight:    *maxInflight,
		AdmissionQueue: *admitQueue,
		RequestTimeout: *reqTimeout,
		AppendRetries:  *appendRetry,
		ReplicaOf:      *replicaOf,
		ReplLagMax:     *replLagMax,
	})
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			svc.Close()
		}
	}()
	if *dataDir != "" {
		log.Printf("wccserve: data dir %s: recovered %d graphs", *dataDir, svc.GraphCount())
	}

	// Replication. A primary (the default role) mounts the feed endpoints
	// in front of the service handler — outside admission control, since
	// feed streams are long-lived. A replica additionally starts the
	// tailer that pulls the primary's graphs into the local store; its
	// own feed endpoints stay mounted, so replicas can be chained.
	replOpts := repl.Options{Registry: reg, Logf: log.Printf}
	primary := repl.NewPrimary(svc, replOpts)
	var replica *repl.Replica
	if *replicaOf != "" {
		replica, err = repl.Start(svc, *replicaOf, replOpts)
		if err != nil {
			return fmt.Errorf("start replica: %w", err)
		}
		defer replica.Close()
		log.Printf("wccserve: replica of %s (lag bound %d versions)", *replicaOf, svc.Config().ReplLagMax)
	}

	if *pprofAddr != "" {
		// Profiling stays off the service listener: a separate mux on a
		// separate (typically loopback) port, so operators can firewall
		// it independently and a profile can never be triggered by
		// service traffic.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		defer pln.Close()
		go func() {
			if err := http.Serve(pln, pm); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("wccserve: pprof server: %v", err)
			}
		}()
		log.Printf("wccserve: pprof on http://%s/debug/pprof/", pln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           primary.Handler(service.NewHandler(svc)),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("wccserve: listening on http://%s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	log.Printf("wccserve: shutting down (drain %v)", *drain)
	// Release handlers blocked in wait=true solves before Shutdown's
	// deadline starts counting — Shutdown does not cancel their contexts.
	svc.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// The listener is down; give in-flight solve jobs their own bounded
	// window before closing the store. Whatever is still running after it
	// is abandoned (its partial work discarded) so a wedged solve cannot
	// hold the process hostage.
	closed = true
	if abandoned := svc.CloseTimeout(*drainSolve); len(abandoned) > 0 {
		log.Printf("wccserve: abandoned %d unfinished solve jobs at shutdown: %v", len(abandoned), abandoned)
	}
	return nil
}
