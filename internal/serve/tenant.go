package serve

// Tenant and generation lifecycle: each named tenant owns a compiled
// rule database, a dispatcher with its own flow limits, byte quotas and
// isolated counters. Rule reload is zero-downtime — the new database is
// loaded and validated in the background, then swapped in behind an
// atomic pointer with epoch/refcount draining: requests that acquired
// the old generation finish on the old engine (its dispatcher is only
// closed, flushing every shard, when the last reference releases), and
// new requests start on the new one.

import (
	"fmt"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"vpatch/ids"
	"vpatch/internal/metrics"
	"vpatch/internal/netsim"
	"vpatch/internal/resil"
	"vpatch/internal/rules"
)

// TenantConfig bounds one tenant's pipeline. Zero fields inherit the
// server's defaults.
type TenantConfig struct {
	// Shards is the number of worker goroutines of the tenant's
	// dispatcher (per generation).
	Shards int `json:"shards,omitempty"`
	// MaxFlows / FlowTimeout / FlowPendingBytes / TotalPendingBytes
	// feed netsim.Limits, per shard.
	MaxFlows          int           `json:"max_flows,omitempty"`
	FlowTimeout       time.Duration `json:"flow_timeout_ns,omitempty"`
	FlowPendingBytes  int           `json:"flow_pending_bytes,omitempty"`
	TotalPendingBytes int           `json:"total_pending_bytes,omitempty"`
	// QuotaBytesPerSec caps the tenant's ingest+scan volume (token
	// bucket, burst QuotaBurstBytes); requests over quota are rejected
	// with 429. 0 = unlimited.
	QuotaBytesPerSec int64 `json:"quota_bytes_per_sec,omitempty"`
	QuotaBurstBytes  int64 `json:"quota_burst_bytes,omitempty"`
	// VerifierFlowBudget caps one flow's verifier spend in modeled
	// cycles (costmodel-priced redfa runs, DFA states and hit
	// bookkeeping); a flow that overspends is demoted to literal-only
	// alerting. 0 inherits the server default; negative disables.
	VerifierFlowBudget int64 `json:"verifier_flow_budget,omitempty"`
	// VerifierBudgetPerSec rate-limits the tenant's aggregate verifier
	// spend (modeled cycles/sec, burst VerifierBudgetBurst; default
	// burst = 2x rate). 0 inherits; negative disables.
	VerifierBudgetPerSec int64 `json:"verifier_budget_per_sec,omitempty"`
	VerifierBudgetBurst  int64 `json:"verifier_budget_burst,omitempty"`
	// IngestQueueBytes bounds the tenant's lane on the fair ingest
	// scheduler. Effective only through the server's TenantDefaults
	// (the scheduler applies one bound to every lane); 0 = resil
	// default (4 MiB).
	IngestQueueBytes int `json:"ingest_queue_bytes,omitempty"`
}

func (c TenantConfig) withDefaults(d TenantConfig) TenantConfig {
	if c.Shards <= 0 {
		c.Shards = d.Shards
	}
	if c.MaxFlows == 0 {
		c.MaxFlows = d.MaxFlows
	}
	if c.FlowTimeout == 0 {
		c.FlowTimeout = d.FlowTimeout
	}
	if c.FlowPendingBytes == 0 {
		c.FlowPendingBytes = d.FlowPendingBytes
	}
	if c.TotalPendingBytes == 0 {
		c.TotalPendingBytes = d.TotalPendingBytes
	}
	if c.QuotaBytesPerSec == 0 {
		c.QuotaBytesPerSec = d.QuotaBytesPerSec
	}
	if c.QuotaBurstBytes == 0 {
		c.QuotaBurstBytes = d.QuotaBurstBytes
	}
	if c.VerifierFlowBudget == 0 {
		c.VerifierFlowBudget = d.VerifierFlowBudget
	}
	if c.VerifierBudgetPerSec == 0 {
		c.VerifierBudgetPerSec = d.VerifierBudgetPerSec
	}
	if c.VerifierBudgetBurst == 0 {
		c.VerifierBudgetBurst = d.VerifierBudgetBurst
	}
	if c.IngestQueueBytes == 0 {
		c.IngestQueueBytes = d.IngestQueueBytes
	}
	return c
}

func (c TenantConfig) limits() netsim.Limits {
	return netsim.Limits{
		MaxFlows:          c.MaxFlows,
		IdleTimeoutMicros: uint64(c.FlowTimeout.Microseconds()),
		FlowPendingBytes:  c.FlowPendingBytes,
		TotalPendingBytes: c.TotalPendingBytes,
	}
}

// tenantNameRE keeps names shell-, URL- and Prometheus-label-safe.
var tenantNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// Tenant is one isolated scanning domain: rule database, dispatcher,
// quotas and counters.
type Tenant struct {
	name string
	cfg  TenantConfig
	srv  *Server

	// reloadMu serializes Reload and shutdown (swaps stay ordered; the
	// data path never takes it).
	reloadMu sync.Mutex
	shut     bool

	cur      atomic.Pointer[generation]
	lastGen  atomic.Uint64
	swapNano atomic.Int64 // wall clock of the last successful swap

	quota *tokenBucket
	// vbudget is the tenant's verifier budget (per-flow cap plus shared
	// cycle pool), installed on every generation's dispatcher; the pool
	// persists across rule reloads so a hot swap cannot reset an
	// attacker's spend.
	vbudget resil.VerifierBudget

	alerts   atomic.Uint64 // flow alerts delivered
	rejected atomic.Uint64 // quota rejections (429s)

	// httpScan accumulates one-shot ScanBuffer instrumentation
	// (request-scoped scratch folded in after each scan).
	httpScan metrics.Atomic

	// obsMu guards the generation ledger: live generations plus the
	// merged counters of finalized ones. Scrapes read retired+live
	// under the mutex, and finalize moves a generation's tallies from
	// live to retired under the same mutex, so totals never double
	// count and never go backwards.
	obsMu        sync.Mutex
	live         map[*generation]struct{}
	retiredScan  metrics.Counters
	retiredStats netsim.Stats // gauges stripped (Flows/PendingBytes = 0)
	residualOOO  int          // pending bytes left behind by closed generations
}

// generation is one loaded rule database epoch: engine, dispatcher and
// observer, reference-counted. refs starts at 1 (the tenant's
// ownership); every request acquires/releases around its use. When the
// tenant swaps in a successor it drops the ownership ref, and whoever
// releases last closes the dispatcher — flushing every shard, so no
// buffered alert is lost — and folds the final tallies into the
// tenant's retired totals.
type generation struct {
	gen  uint64
	t    *Tenant
	eng  *ids.Engine
	disp *ids.Dispatcher
	obs  *ids.PipelineObserver

	refs    atomic.Int64
	fin     sync.Once
	drained chan struct{}
}

func (s *Server) newTenant(name string, cfg TenantConfig) *Tenant {
	t := &Tenant{
		name: name,
		cfg:  cfg,
		srv:  s,
		live: make(map[*generation]struct{}),
	}
	if cfg.QuotaBytesPerSec > 0 {
		burst := cfg.QuotaBurstBytes
		if burst <= 0 {
			burst = cfg.QuotaBytesPerSec
		}
		t.quota = newTokenBucket(cfg.QuotaBytesPerSec, burst)
	}
	if cfg.VerifierFlowBudget > 0 {
		t.vbudget.PerFlow = cfg.VerifierFlowBudget
	}
	if cfg.VerifierBudgetPerSec > 0 {
		t.vbudget.Pool = resil.NewPool(cfg.VerifierBudgetPerSec, cfg.VerifierBudgetBurst)
	}
	if t.vbudget.Armed() {
		t.vbudget.Price = resil.DefaultPrice()
	}
	return t
}

// Reload validates db (CRC and pattern-digest checks run inside
// ids.LoadDB), compiles nothing — the blob holds the precompiled
// engines — and atomically swaps the new generation in. In-flight
// requests keep the generation they acquired; its dispatcher drains in
// the background once the last reference releases. Returns the new
// generation number.
func (t *Tenant) Reload(db []byte) (uint64, error) {
	// Load outside the locks: validation and engine reconstruction are
	// the slow part, and the data path must not stall behind them.
	eng, err := ids.LoadDB(db, func(ids.Alert) {})
	if err != nil {
		return 0, err
	}

	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	if t.shut {
		return 0, fmt.Errorf("serve: tenant %q is draining", t.name)
	}
	gen := t.lastGen.Add(1)
	g := &generation{gen: gen, t: t, eng: eng, drained: make(chan struct{})}
	g.refs.Store(1)
	rset := eng.Rules()
	g.disp = eng.NewBatchDispatcher(t.cfg.Shards, t.cfg.limits(), func(as []ids.Alert) { t.onAlerts(gen, rset, as) })
	if t.vbudget.Armed() {
		// Installed before the generation is published, so no segment
		// races the shard budget fields.
		g.disp.SetVerifierBudget(t.vbudget)
	}
	g.obs = g.disp.Observe()

	t.obsMu.Lock()
	t.live[g] = struct{}{}
	t.obsMu.Unlock()

	old := t.cur.Swap(g)
	t.swapNano.Store(time.Now().UnixNano())
	if old != nil {
		old.release() // drop ownership; drains when in-flight users finish
	}
	return gen, nil
}

// acquire pins the current generation for one request. Returns nil when
// the tenant has no rules loaded (or was shut down). Callers must
// release exactly once.
func (t *Tenant) acquire() *generation {
	for {
		g := t.cur.Load()
		if g == nil {
			return nil
		}
		g.refs.Add(1)
		if t.cur.Load() == g {
			return g
		}
		// Lost a race with a swap; this ref may have resurrected a
		// generation whose drain already began. Put it back and retry.
		g.release()
	}
}

func (g *generation) release() {
	if g.refs.Add(-1) == 0 {
		g.finalize()
	}
}

// finalize retires the generation: closes the dispatcher (every shard
// flushes, so all pending alerts surface first) and moves its tallies
// into the tenant's retired totals. sync.Once absorbs the benign
// double-trigger race between the owner's release and a late acquirer
// backing out.
func (g *generation) finalize() {
	g.fin.Do(func() {
		st := g.disp.Close()
		t := g.t
		t.obsMu.Lock()
		c := g.obs.Counters()
		t.retiredScan.Add(&c)
		stripped := st
		stripped.Flows, stripped.PendingBytes = 0, 0
		t.retiredStats.Add(stripped)
		t.residualOOO += st.PendingBytes
		delete(t.live, g)
		t.obsMu.Unlock()
		close(g.drained)
	})
}

// onAlerts is the tenant's alert sink, called concurrently from the
// dispatcher's worker goroutines with one batch at a time (see
// ids.Engine.NewBatchDispatcher): one counter add and one hub publish
// per batch, then Config.OnAlert once per alert.
func (t *Tenant) onAlerts(gen uint64, rset *rules.Set, as []ids.Alert) {
	t.alerts.Add(uint64(len(as)))
	t.srv.alertHub.publishBatch(t.name, gen, rset, as)
	if fn := t.srv.cfg.OnAlert; fn != nil {
		for _, a := range as {
			fn(t.name, gen, a)
		}
	}
}

// takeQuota charges n bytes against the tenant's budget, counting a
// rejection when the budget is exhausted.
func (t *Tenant) takeQuota(n int) bool {
	if t.quota == nil {
		return true
	}
	if t.quota.take(n) {
		return true
	}
	t.rejected.Add(1)
	return false
}

// scanCounters returns the tenant's merged scan counters: finalized
// generations, live generations' published tallies, and one-shot HTTP
// scans. Safe to call from any goroutine; consecutive calls never go
// backwards.
func (t *Tenant) scanCounters() metrics.Counters {
	t.obsMu.Lock()
	defer t.obsMu.Unlock()
	total := t.retiredScan
	for g := range t.live {
		c := g.obs.Counters()
		total.Add(&c)
	}
	h := t.httpScan.Snapshot()
	total.Add(&h)
	return total
}

// lifecycleStats returns the tenant's merged flow-lifecycle stats
// (gauges reflect live generations only; counters include retired
// ones).
func (t *Tenant) lifecycleStats() netsim.Stats {
	t.obsMu.Lock()
	defer t.obsMu.Unlock()
	st := t.retiredStats
	for g := range t.live {
		st.Add(g.obs.FlowStats())
	}
	return st
}

// generationInfo reports the tenant's current epoch for responses and
// metrics: generation number, rule count, algorithm, and seconds since
// the last swap. Generation 0 means no rules loaded.
func (t *Tenant) generationInfo() (gen uint64, rules int, algo string, age float64) {
	g := t.acquire()
	if g == nil {
		return 0, 0, "", 0
	}
	defer g.release()
	age = time.Since(time.Unix(0, t.swapNano.Load())).Seconds()
	n := g.eng.Set().Len()
	if rset := g.eng.Rules(); rset != nil {
		n = len(rset.Rules) // rule-conditioned database: count rules, not prefilter literals
	}
	return g.gen, n, g.eng.Algorithm().String(), age
}

// shutdown retires the tenant: no new acquisitions succeed, and the
// call blocks until every live generation has drained (all in-flight
// requests released, every shard flushed) or the deadline passes.
// Returns true on a complete drain.
func (t *Tenant) shutdown(deadline <-chan struct{}) bool {
	t.reloadMu.Lock()
	t.shut = true
	old := t.cur.Swap(nil)
	t.reloadMu.Unlock()
	if old != nil {
		old.release()
	}
	for {
		t.obsMu.Lock()
		var g *generation
		for lg := range t.live {
			g = lg
			break
		}
		t.obsMu.Unlock()
		if g == nil {
			return true
		}
		select {
		case <-g.drained:
		case <-deadline:
			return false
		}
	}
}

// tokenBucket is a classic byte-rate limiter: rate tokens/second refill
// up to burst; take succeeds when the bucket holds n tokens.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(ratePerSec, burst int64) *tokenBucket {
	return &tokenBucket{
		rate:   float64(ratePerSec),
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

func (b *tokenBucket) take(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens < float64(n) {
		return false
	}
	b.tokens -= float64(n)
	return true
}
