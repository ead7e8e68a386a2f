// Package resil is the overload-resilience layer: the mechanisms that
// keep the pipeline serving honest traffic while one tenant, one flow,
// or one crafted input tries to consume it. The paper's economics —
// cheap prefiltering, expensive verification only at literal-hit
// anchors — hold only for traffic the defender did not choose; an
// adversary who floods anchor literals (forcing verifier runs), opens
// thousands of stalled connections, or simply outpaces everyone else
// inverts them. This package supplies the three countermeasures the
// serving stack threads through serve → dispatcher → verifier:
//
//   - Scheduler: deficit-round-robin scheduling of ingest batches
//     across tenants with per-tenant bounded queues, replacing
//     reject-over-quota. A hot tenant fills and overflows its own
//     queue; its neighbors' batches keep dispatching at their fair
//     byte share.
//
//   - Pool + VerifierBudget: verifier-work budgets denominated in
//     modeled cycles (costmodel.VerifierPrice) charged per flow and
//     per tenant. A flow that exhausts its budget is degraded to
//     literal-only alerting — the prefilter still sees every byte,
//     only the regex tail stops running — so a match-flood buys a
//     bounded amount of DFA work and then nothing.
//
//   - chaos (subpackage): the fault-injection hooks the race-pinned
//     resilience tests use to prove alerts are neither lost nor
//     duplicated under injected shard panics, stalls and resets.
//
// The degradation order under sustained overload is: shed verify
// (budgets demote flows to literal-only), shed flows (queue overflow
// drops the hot tenant's own batches), reject (HTTP 429 / quota for
// request-scoped APIs).
package resil

import (
	"sync"
	"time"
)

// Pool is a token bucket: capacity bounds the burst a holder can spend
// at once, the rate bounds its sustained spend. It backs a tenant's
// verifier-work budget, shared by every flow and denominated in modeled
// cycles (costmodel.VerifierPrice), and a tenant's ingest byte quota.
// Charges come concurrently — verifier charges only on the rule-hit
// path, quota charges once per request or frame — so a mutex is cheap
// enough.
type Pool struct {
	mu     sync.Mutex
	tokens int64
	cap    int64
	rate   int64 // cycles per second
	last   time.Time

	denied uint64
}

// NewPool returns a pool refilling at ratePerSec modeled cycles per
// second with the given burst capacity (<= 0 defaults to two seconds
// of rate). A nil *Pool is valid everywhere and means "no tenant cap".
func NewPool(ratePerSec, burst int64) *Pool {
	if burst <= 0 {
		burst = 2 * ratePerSec
	}
	return &Pool{tokens: burst, cap: burst, rate: ratePerSec, last: time.Now()}
}

// TryTake withdraws n cycles if the pool holds them, reporting whether
// the charge succeeded. A nil pool always succeeds.
func (p *Pool) TryTake(n int64) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	// Refill whole tokens, and advance last only by the time they took
	// to accrue: frequent charges must not each throw the fractional
	// remainder away, or a pool charged faster than one token's period
	// never refills.
	if due := int64(now.Sub(p.last).Seconds() * float64(p.rate)); due > 0 {
		p.tokens += due
		p.last = p.last.Add(time.Duration(float64(due) / float64(p.rate) * float64(time.Second)))
		if p.tokens >= p.cap {
			p.tokens, p.last = p.cap, now
		}
	}
	if p.tokens < n {
		p.denied++
		return false
	}
	p.tokens -= n
	return true
}

// Denied reports how many charges the pool has refused.
func (p *Pool) Denied() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.denied
}
