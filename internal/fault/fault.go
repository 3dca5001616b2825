// Package fault is the seed-deterministic fault-injection seam the
// durable storage path and the replication transport run on. It has
// three halves:
//
//   - A filesystem abstraction (FS, File; see fs.go): the small set of
//     operations internal/store.Disk performs — create, write, fsync,
//     rename, truncate, remove — behind an interface whose production
//     implementation (OS) is a zero-cost passthrough to package os.
//
//   - A network seam (see net.go), symmetric to the filesystem one:
//     InjectTransport wraps the replication client's http.RoundTripper
//     with per-connect ("conn:<stream>") and per-read ("recv:<stream>")
//     failpoints — connection drops, torn streams (a prefix is
//     delivered, then the stream cuts), stalls, and errors — and
//     InjectWriter wraps the primary's feed writer with per-frame
//     ("send:<stream>") failpoints, which is what lets a chaos sweep
//     tear the stream at every record boundary exactly.
//
//   - A failpoint Registry: every operation the injected FS (Inject)
//     performs first consults the registry under a named site —
//     "<op>:<file>", e.g. "sync:wal.log" or "rename:snapshot.map" —
//     which can answer with an injected error (ENOSPC, EIO), a torn
//     write (a prefix of the data lands, then the write fails), a
//     stall (the operation blocks, then proceeds), or a simulated
//     crash (the operation fails and every subsequent operation fails
//     too, as if the process died mid-syscall and is observing its own
//     half-written files).
//
// The registry also records every site it sees and how often (Sites,
// Hits), which is what makes exhaustive crash-point sweeps possible: a
// test first runs a scenario against a rule-free registry to enumerate
// the (site, hit) pairs the scenario touches, then re-runs it once per
// pair with a crash injected exactly there, and asserts recovery.
//
// Rules are deterministic by construction — a rule either always fires,
// fires on one specific hit index, or fires with a probability drawn
// from a PCG stream seeded at NewRegistry — so a failing chaos run
// reproduces from its seed and spec alone. ParseSpec compiles the
// wccserve -fault-spec syntax:
//
//	site[#hit][~prob]=action{,site[#hit][~prob]=action}
//	action := enospc | eio | torn | cut | crash | stall[:duration]
//
// e.g. "sync:wal.log#3=enospc" (the third WAL fsync fails with ENOSPC)
// or "write:wal.log~0.01=torn" (each WAL write has a 1% chance of
// tearing and crashing the store). Network sites use the same grammar:
// "send:wal#3=cut" tears the primary's feed mid-way through the third
// shipped frame (the stream dies, the process lives to serve the
// reconnect; "torn" would latch the whole node down), "conn:wal=eio" fails every replica feed connect, and
// "recv:snapshot~0.05=stall:2s" stalls 5% of snapshot-download reads
// for two seconds.
package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrInjected is the base of every injected failure; errors.Is(err,
// ErrInjected) distinguishes synthetic faults from real filesystem
// errors in tests and logs.
var ErrInjected = errors.New("fault: injected")

// ErrCrash marks a simulated crash: the failing operation and every
// operation after it (the registry latches). It wraps ErrInjected.
var ErrCrash = fmt.Errorf("%w: simulated crash", ErrInjected)

// Kind is what an armed rule does to its operation.
type Kind int

const (
	// KindErr fails the operation with Rule.Err (the operation has no
	// on-disk effect — the model of a clean syscall error).
	KindErr Kind = iota
	// KindTorn lets a prefix of the data reach the file, then fails and
	// latches the crash state — the model of power loss mid-write. Only
	// meaningful on write sites; elsewhere it behaves like KindCrash.
	KindTorn
	// KindCrash fails the operation with no on-disk effect and latches:
	// all later operations fail with ErrCrash until the registry is
	// reset. The model of kill -9 between syscalls.
	KindCrash
	// KindStall delays the operation by Rule.Delay (default 500ms) and
	// then lets it proceed — the model of a slow disk or a congested
	// network path. Nothing fails and nothing latches; what a stall
	// exposes is timeout and lag handling (a replica behind a stalled
	// feed must report lag, not corruption).
	KindStall
	// KindCut is a torn delivery WITHOUT the crash latch: a prefix of the
	// data goes through, then the operation fails, and the next operation
	// proceeds normally — the model of one TCP connection dying mid-
	// stream while both processes live on and reconnect. KindTorn on a
	// network site, by contrast, tears AND latches: the peer died with
	// the connection and stays dead until the registry is reset. On
	// non-write sites KindCut behaves like KindErr.
	KindCut
)

func (k Kind) String() string {
	switch k {
	case KindErr:
		return "err"
	case KindTorn:
		return "torn"
	case KindCrash:
		return "crash"
	case KindStall:
		return "stall"
	case KindCut:
		return "cut"
	}
	return "unknown"
}

// Rule arms one failpoint. The zero Hit/Prob fire on every hit; Hit=k
// fires exactly on the k-th hit of the site (1-based); Prob=p fires
// each hit with probability p from the registry's seeded stream.
type Rule struct {
	Site string
	Hit  int
	Prob float64
	Kind Kind
	// Err is the injected error for KindErr; nil selects ErrInjected.
	// Wrapped so errors.Is(err, ErrInjected) always holds.
	Err error
	// Delay is how long a KindStall rule blocks the operation before
	// letting it proceed; zero selects 500ms. Ignored by other kinds.
	Delay time.Duration
}

// stallDelay is the default KindStall duration.
const stallDelay = 500 * time.Millisecond

// Registry is the failpoint table one injected FS consults. All methods
// are safe for concurrent use. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rules   map[string][]Rule
	hits    map[string]int
	order   []string // sites in first-hit order, for deterministic sweeps
	crashed bool
	events  []string

	// Logf, when set, receives one line per injected fault (and the
	// crash latch), e.g. log.Printf for chaos runs. Set before use; it
	// is called with the registry lock held.
	Logf func(format string, args ...any)
}

// NewRegistry returns an empty registry whose probabilistic rules draw
// from a PCG stream seeded with seed — same seed, same faults.
func NewRegistry(seed uint64) *Registry {
	return &Registry{
		rng:   rand.New(rand.NewPCG(seed, 0xfa017)),
		rules: make(map[string][]Rule),
		hits:  make(map[string]int),
	}
}

// Add arms a rule. Multiple rules on one site are checked in the order
// added; the first that fires wins.
func (r *Registry) Add(rule Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules[rule.Site] = append(r.rules[rule.Site], rule)
}

// Clear disarms every rule and lifts the crash latch; hit counts and
// the site order survive (they describe the workload, not the faults).
func (r *Registry) Clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules = make(map[string][]Rule)
	r.crashed = false
}

// Crashed reports whether a crash fault has latched.
func (r *Registry) Crashed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashed
}

// Hits returns a copy of the per-site hit counts observed so far.
func (r *Registry) Hits() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.hits))
	for k, v := range r.hits {
		out[k] = v
	}
	return out
}

// Sites returns every site seen so far in first-hit order — the
// deterministic enumeration crash-point sweeps iterate.
func (r *Registry) Sites() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// Events returns the injected-fault log, one line per fired rule.
func (r *Registry) Events() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

func (r *Registry) record(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.events = append(r.events, line)
	if r.Logf != nil {
		r.Logf("fault: %s", line)
	}
}

// hit registers one operation at site and returns the rule that fires,
// if any. Callers hold no lock.
func (r *Registry) hit(site string) (Rule, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, seen := r.hits[site]; !seen {
		r.order = append(r.order, site)
	}
	r.hits[site]++
	n := r.hits[site]
	if r.crashed {
		return Rule{}, false, ErrCrash
	}
	for _, rule := range r.rules[site] {
		if rule.Hit > 0 && rule.Hit != n {
			continue
		}
		if rule.Prob > 0 && rule.Prob < 1 && r.rng.Float64() >= rule.Prob {
			continue
		}
		r.record("%s hit %d: %s", site, n, rule.Kind)
		if rule.Kind == KindTorn || rule.Kind == KindCrash {
			r.crashed = true
		}
		return rule, true, nil
	}
	return Rule{}, false, nil
}

// Check consults the registry for a non-write operation at site,
// returning the injected error if a rule fires (torn behaves like
// crash here — there is no data to tear; stall sleeps and proceeds).
func (r *Registry) Check(site string) error {
	rule, fired, err := r.hit(site)
	if err != nil {
		return err
	}
	if !fired {
		return nil
	}
	switch rule.Kind {
	case KindErr, KindCut:
		return ruleErr(site, rule)
	case KindStall:
		rule.stall()
		return nil
	}
	return ErrCrash
}

// stall sleeps the rule's delay — called after hit released the
// registry lock, so a stalled operation never blocks other sites.
func (rule Rule) stall() {
	d := rule.Delay
	if d <= 0 {
		d = stallDelay
	}
	time.Sleep(d)
}

// CheckWrite consults the registry for a write of n bytes at site. It
// returns how many bytes the underlying write may perform and the error
// the caller must return after performing them: (n, nil) when nothing
// fires, (0, err) for clean failures, and (n/2, ErrCrash) for a torn
// write — the caller writes the prefix, then reports the crash.
func (r *Registry) CheckWrite(site string, n int) (int, error) {
	rule, fired, err := r.hit(site)
	if err != nil {
		return 0, err
	}
	if !fired {
		return n, nil
	}
	switch rule.Kind {
	case KindErr:
		return 0, ruleErr(site, rule)
	case KindTorn:
		return n / 2, ErrCrash
	case KindCut:
		return n / 2, ruleErr(site, rule)
	case KindStall:
		rule.stall()
		return n, nil
	default:
		return 0, ErrCrash
	}
}

func ruleErr(site string, rule Rule) error {
	if rule.Err != nil {
		return fmt.Errorf("%w: %s: %w", ErrInjected, site, rule.Err)
	}
	return fmt.Errorf("%w: %s", ErrInjected, site)
}

// ParseSpec compiles a comma-separated fault spec into rules on a fresh
// registry seeded with seed. Grammar per clause:
//
//	site[#hit][~prob]=action    action := enospc | eio | torn | cut | crash | stall[:dur]
func ParseSpec(spec string, seed uint64) (*Registry, error) {
	reg := NewRegistry(seed)
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		site, action, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q: want site=action", clause)
		}
		rule := Rule{}
		if s, p, ok := strings.Cut(site, "~"); ok {
			prob, err := strconv.ParseFloat(p, 64)
			if err != nil || prob <= 0 || prob > 1 {
				return nil, fmt.Errorf("fault: clause %q: bad probability %q", clause, p)
			}
			site, rule.Prob = s, prob
		}
		if s, h, ok := strings.Cut(site, "#"); ok {
			hit, err := strconv.Atoi(h)
			if err != nil || hit < 1 {
				return nil, fmt.Errorf("fault: clause %q: bad hit index %q", clause, h)
			}
			site, rule.Hit = s, hit
		}
		rule.Site = strings.TrimSpace(site)
		if rule.Site == "" {
			return nil, fmt.Errorf("fault: clause %q: empty site", clause)
		}
		switch strings.TrimSpace(action) {
		case "enospc":
			rule.Kind, rule.Err = KindErr, syscall.ENOSPC
		case "eio":
			rule.Kind, rule.Err = KindErr, syscall.EIO
		case "torn":
			rule.Kind = KindTorn
		case "cut":
			rule.Kind = KindCut
		case "crash":
			rule.Kind = KindCrash
		default:
			if d, ok := strings.CutPrefix(strings.TrimSpace(action), "stall"); ok {
				rule.Kind = KindStall
				if dur, ok := strings.CutPrefix(d, ":"); ok {
					delay, err := time.ParseDuration(dur)
					if err != nil || delay <= 0 {
						return nil, fmt.Errorf("fault: clause %q: bad stall duration %q", clause, dur)
					}
					rule.Delay = delay
				} else if d != "" {
					return nil, fmt.Errorf("fault: clause %q: unknown action %q (want enospc|eio|torn|cut|crash|stall[:dur])", clause, action)
				}
				break
			}
			return nil, fmt.Errorf("fault: clause %q: unknown action %q (want enospc|eio|torn|cut|crash|stall[:dur])", clause, action)
		}
		reg.Add(rule)
	}
	return reg, nil
}
