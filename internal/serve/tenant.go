package serve

// Tenant lifecycle: each named tenant owns one flow plane — a
// dispatcher with its shards, reassemblers, flow tables, tombstones and
// observers, created by the tenant's first rule load and closed by its
// shutdown — plus byte quotas and isolated counters. A rule generation
// is only the immutable compiled engine: Reload loads and validates the
// new database outside the locks, swaps the engine under the live
// shards (ids.Dispatcher.Swap) and publishes it behind an atomic
// pointer for one-shot scans. Flows in flight keep their reassembly,
// carry and per-rule dedup across the swap.

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
	// dispatcher.
	Shards int `json:"shards,omitempty"`
	// MaxFlows / FlowTimeout / FlowPendingBytes / TotalPendingBytes
	// feed netsim.Limits, per shard.
	MaxFlows          int           `json:"max_flows,omitempty"`
	FlowTimeout       time.Duration `json:"flow_timeout_ns,omitempty"`
	FlowPendingBytes  int           `json:"flow_pending_bytes,omitempty"`
	TotalPendingBytes int           `json:"total_pending_bytes,omitempty"`
	// QuotaBytesPerSec caps the tenant's ingest+scan volume (token
	// bucket, burst QuotaBurstBytes, default one second of quota);
	// requests over quota are rejected with 429. 0 = unlimited.
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

	// disp is the tenant's flow plane: set, armed and observed by the
	// first Reload before it is published, never replaced. cur is the
	// current rule generation — nil before the first load and after
	// shutdown.
	disp     atomic.Pointer[ids.Dispatcher]
	cur      atomic.Pointer[generation]
	swapNano atomic.Int64 // wall clock of the last successful swap

	// quota is the tenant's byte budget (nil = unlimited); its Denied
	// count is the tenant's 429 total.
	quota *resil.Pool
	// vbudget is the tenant's verifier budget (per-flow cap plus shared
	// cycle pool), installed once on the dispatcher: flows keep their
	// spend across rule swaps, and so does the pool.
	vbudget resil.VerifierBudget

	alerts atomic.Uint64 // flow alerts delivered

	// httpScan accumulates one-shot ScanBuffer instrumentation
	// (request-scoped scratch folded in after each scan).
	httpScan metrics.Atomic
}

// generation is one loaded rule database: its number and the immutable
// compiled engine.
type generation struct {
	gen uint64
	eng *ids.Engine
}

func (s *Server) newTenant(name string, cfg TenantConfig) *Tenant {
	t := &Tenant{name: name, cfg: cfg, srv: s}
	if cfg.QuotaBytesPerSec > 0 {
		burst := cfg.QuotaBurstBytes
		if burst <= 0 {
			burst = cfg.QuotaBytesPerSec
		}
		t.quota = resil.NewPool(cfg.QuotaBytesPerSec, burst)
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
// ids.LoadDB), restores its engines without parsing rule text (each
// group's engine is compiled from its stored patterns) and swaps the
// new engine in: the first load starts the tenant's dispatcher, later
// loads rebind its live shards (every segment queued before the swap is
// scanned, and its alerts reported, under the old generation). Returns
// the new generation number.
func (t *Tenant) Reload(db []byte) (uint64, error) {
	// Load outside the locks: validation and engine reconstruction are
	// the slow part, and the data path must not stall behind them.
	eng, err := ids.LoadDB(db, nil)
	if err != nil {
		return 0, err
	}

	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	if t.shut {
		return 0, fmt.Errorf("serve: tenant %q is draining", t.name)
	}
	gen := uint64(1)
	if g := t.cur.Load(); g != nil {
		gen = g.gen + 1
	}
	rset := eng.Rules()
	sink := func(as []ids.Alert) { t.onAlerts(gen, rset, as) }
	if d := t.disp.Load(); d != nil {
		d.Swap(eng, sink)
	} else {
		d = eng.NewBatchDispatcher(t.cfg.Shards, t.cfg.limits(), sink)
		if t.vbudget.Armed() {
			d.SetVerifierBudget(t.vbudget)
		}
		d.Observe()
		t.disp.Store(d)
	}
	t.cur.Store(&generation{gen: gen, eng: eng})
	t.swapNano.Store(time.Now().UnixNano())
	return gen, nil
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

// scanCounters returns the tenant's merged scan counters: the
// dispatcher's published tallies plus one-shot HTTP scans. Safe to call
// from any goroutine; consecutive calls never go backwards.
func (t *Tenant) scanCounters() metrics.Counters {
	total := t.httpScan.Snapshot()
	if d := t.disp.Load(); d != nil {
		c := d.Observe().Counters()
		total.Add(&c)
	}
	return total
}

// lifecycleStats returns the tenant's flow-lifecycle stats as published
// by its dispatcher's shards.
func (t *Tenant) lifecycleStats() netsim.Stats {
	if d := t.disp.Load(); d != nil {
		return d.Observe().FlowStats()
	}
	return netsim.Stats{}
}

// generationInfo reports the tenant's current generation for responses
// and metrics: generation number, rule count, algorithm, and seconds
// since the last swap. Generation 0 means no rules loaded.
func (t *Tenant) generationInfo() (gen uint64, rules int, algo string, age float64) {
	g := t.cur.Load()
	if g == nil {
		return 0, 0, "", 0
	}
	age = time.Since(time.Unix(0, t.swapNano.Load())).Seconds()
	n := g.eng.Set().Len()
	if rset := g.eng.Rules(); rset != nil {
		n = len(rset.Rules) // rule-conditioned database: count rules, not prefilter literals
	}
	return g.gen, n, g.eng.Algorithm().String(), age
}

// shutdown retires the tenant: the generation is unpublished (no new
// request starts, Reload is refused) and the dispatcher closes — every
// queued slab handled and every shard flushed, so all buffered alerts
// surface. It blocks until the close completes or the deadline passes,
// and returns the flow plane's lifecycle stats (final on a complete
// close, as published so far otherwise) and whether it completed. A
// repeated call re-reports.
func (t *Tenant) shutdown(deadline <-chan struct{}) (netsim.Stats, bool) {
	t.reloadMu.Lock()
	t.shut = true
	t.cur.Store(nil)
	t.reloadMu.Unlock()
	d := t.disp.Load()
	if d == nil {
		return netsim.Stats{}, true
	}
	closed := make(chan netsim.Stats, 1)
	go func() { closed <- d.Close() }()
	select {
	case st := <-closed:
		return st, true
	case <-deadline:
		return d.Observe().FlowStats(), false
	}
}
