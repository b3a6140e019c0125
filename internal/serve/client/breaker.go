package client

import (
	"errors"
	"sync"
	"time"
)

// ErrCircuitOpen reports a call refused locally because the target
// host's circuit breaker is open: recent calls failed consecutively and
// the cooldown has not elapsed, so the client fails fast instead of
// piling more load onto a struggling server.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes calls through, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails calls fast until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one trial call; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerOptions configures the client's circuit breaker.
type BreakerOptions struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker (default 5).
	FailureThreshold int
	// Cooldown is how long an open breaker rejects calls before
	// admitting a half-open trial call (default 1s).
	Cooldown time.Duration
	// OnStateChange observes transitions (for logs, metrics, and the
	// chaos harness). Called outside the breaker lock, in call order.
	OnStateChange func(host string, from, to BreakerState)
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.FailureThreshold == 0 {
		o.FailureThreshold = 5
	}
	if o.Cooldown == 0 {
		o.Cooldown = time.Second
	}
	return o
}

// breaker is the client's circuit breaker. The zero value is not
// usable; build with newBreaker.
type breaker struct {
	opts BreakerOptions
	host string

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open trial call is in flight
}

func newBreaker(host string, opts BreakerOptions) *breaker {
	return &breaker{opts: opts.withDefaults(), host: host}
}

// transitionLocked moves to next and returns the notification thunk to
// run after the lock is released (the callback may call back into the
// breaker or client).
func (b *breaker) transitionLocked(next BreakerState) func() {
	from := b.state
	if from == next {
		return nil
	}
	b.state = next
	b.probing = false
	switch next {
	case BreakerOpen:
		b.openedAt = time.Now()
	case BreakerClosed:
		b.fails = 0
	}
	if cb := b.opts.OnStateChange; cb != nil {
		host := b.host
		return func() { cb(host, from, next) }
	}
	return nil
}

// cooledLocked reports whether the breaker is open and its cooldown has
// elapsed, so the next call may run as a half-open trial.
func (b *breaker) cooledLocked() bool {
	return b.state == BreakerOpen && time.Since(b.openedAt) >= b.opts.Cooldown
}

// Allow reports whether a call may proceed. In the half-open state only
// one trial call is admitted at a time; concurrent calls fail fast until
// the trial resolves.
func (b *breaker) Allow() bool {
	var notify func()
	b.mu.Lock()
	if b.cooledLocked() {
		notify = b.transitionLocked(BreakerHalfOpen)
	}
	ok := false
	switch {
	case b.state == BreakerClosed:
		ok = true
	case b.state == BreakerHalfOpen && !b.probing:
		b.probing, ok = true, true
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
	return ok
}

// Success records a call that reached the server and got a healthy
// answer; a successful half-open trial closes the breaker.
func (b *breaker) Success() {
	var notify func()
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerHalfOpen:
		notify = b.transitionLocked(BreakerClosed)
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Failure records a server-fault outcome (5xx or transport error).
func (b *breaker) Failure() {
	var notify func()
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.opts.FailureThreshold {
			notify = b.transitionLocked(BreakerOpen)
		}
	case BreakerHalfOpen:
		notify = b.transitionLocked(BreakerOpen)
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// State returns the current position. An open breaker whose cooldown
// has elapsed reads half-open: its next call is admitted as a trial, so
// a caller routing on State tries the host again. Allow makes the
// transition itself.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cooledLocked() {
		return BreakerHalfOpen
	}
	return b.state
}
