// Package retry is the shared backoff policy for transient failures:
// the service's store-append retries and internal/client's handling of
// connection errors, 5xx responses, and Retry-After headers (the HTTP
// client behind wccload and wccstream) all draw their delays from one
// seeded policy, so a retrying run is reproducible and no caller invents
// its own jitter.
package retry

import (
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Policy computes full-jitter exponential backoff delays: attempt k
// (0-based) sleeps a uniformly random duration in [0, min(Max,
// Base·2^k)]. Full jitter (rather than equal or decorrelated) is the
// standard choice for spreading a thundering herd of retriers; the
// seeded stream keeps runs reproducible. Safe for concurrent use.
type Policy struct {
	// Attempts is the total number of tries including the first.
	Attempts int
	// Base and Max bound the delay before each retry.
	Base, Max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a policy of attempts total tries with delays jittered
// from seed.
func New(attempts int, base, max time.Duration, seed uint64) *Policy {
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if max < base {
		max = base
	}
	return &Policy{Attempts: attempts, Base: base, Max: max, rng: rand.New(rand.NewPCG(seed, 0xba0ff))}
}

// Delay returns the sleep before retry number attempt (0-based: the
// delay after the first failure is Delay(0)). A server-supplied floor
// (Retry-After) overrides the jittered delay when larger.
func (p *Policy) Delay(attempt int, floor time.Duration) time.Duration {
	ceil := p.Max
	if shifted := p.Base << uint(attempt); shifted < ceil && shifted > 0 {
		ceil = shifted
	}
	p.mu.Lock()
	d := time.Duration(p.rng.Int64N(int64(ceil) + 1))
	p.mu.Unlock()
	if floor > d {
		return floor
	}
	return d
}

// Do runs fn up to p.Attempts times, sleeping the jittered delay
// between tries, while transient reports the error as worth retrying.
// It returns the number of retries performed and the final error (nil
// on success). A nil transient retries every error.
func (p *Policy) Do(fn func() error, transient func(error) bool) (int, error) {
	var err error
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil {
			return attempt, nil
		}
		if transient != nil && !transient(err) {
			return attempt, err
		}
		if attempt+1 >= p.Attempts {
			return attempt, err
		}
		time.Sleep(p.Delay(attempt, 0))
	}
}

// RetryStatus reports whether an HTTP status invites a retry: 429 (the
// admission controller shedding load) and the transient 5xx family.
func RetryStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// RetryAfter parses a Retry-After response header as a delay floor.
// Both RFC 9110 §10.2.3 forms are understood: delta-seconds, and an
// HTTP-date (anything http.ParseTime accepts), whose floor is the time
// remaining until that date — 0 when it is already past. Absent or
// malformed headers return 0.
func RetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := time.Until(t); d > 0 {
		return d
	}
	return 0
}
