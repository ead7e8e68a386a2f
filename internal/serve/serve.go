// Package serve turns the vpatch library stack into a resident
// multi-tenant scanning daemon: an HTTP/JSON scan API and a raw-TCP
// segment ingest port in front of per-tenant ids pipelines, with
// zero-downtime rule reload (the compiled engine swaps under the
// tenant's live shards, which keep every flow's reassembly state), byte
// quotas, and a Prometheus-style /metrics surface exported from the
// library's existing counters.
//
// Endpoints:
//
//	POST /v1/scan?tenant=T&port=P     scan one buffer (raw body) against T's rules
//	POST /v1/stream?tenant=T[&flush=1] ingest segment frames (see wire.go) into T's pipeline
//	PUT  /v1/tenants/{id}             create a tenant (JSON TenantConfig body)
//	GET  /v1/tenants[/{id}]           list tenants / tenant detail
//	POST /v1/tenants/{id}/rules       load a compiled .vpdb database, hot-swapping atomically
//	DELETE /v1/tenants/{id}           drain and remove a tenant
//	GET  /v1/alerts                   recent alerts as JSON lines (?tenant= filters,
//	                                  ?limit=N keeps the newest N, ?follow=1 streams live)
//	GET  /metrics                     Prometheus text exposition
//	GET  /healthz                     liveness (always 200 while the process serves)
//	GET  /readyz                      readiness (503 while empty or draining)
//	POST /drain                       stop accepting, flush all shards, report residual state
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/arena"
	"vpatch/internal/netsim"
	"vpatch/internal/resil"
)

// Ingest batching, shared by the /v1/stream and raw-TCP ingest loops:
// frames reach the tenant's scheduler lane in batches of at most
// streamBatchSegs, each held at most ingestBatchLinger from its first
// frame, so a quiet feed's frames do not wait on the ones after them.
const (
	streamBatchSegs   = 64
	ingestBatchLinger = 5 * time.Millisecond
)

// ingestBatch gathers one ingest stream's frames for the tenant's
// scheduler lane, which owns every slice it is handed.
type ingestBatch struct {
	s       *Server
	t       *Tenant
	segs    []netsim.Segment // nil when nothing is held
	since   time.Time        // the first held frame's arrival
	dropped int              // batches the scheduler refused (the lane was full)
}

// add holds seg and hands the batch on once it is full or its first
// frame has been held ingestBatchLinger.
func (b *ingestBatch) add(seg netsim.Segment) {
	now := time.Now()
	if b.segs == nil {
		b.segs, b.since = make([]netsim.Segment, 0, streamBatchSegs), now
	}
	b.segs = append(b.segs, seg)
	if len(b.segs) == streamBatchSegs || now.Sub(b.since) >= ingestBatchLinger {
		b.flush()
	}
}

// wait is how long a reader may block for the next frame: idle when
// nothing is held, else what is left of the hold.
func (b *ingestBatch) wait(idle time.Duration) time.Duration {
	if b.segs == nil {
		return idle
	}
	return max(ingestBatchLinger-time.Since(b.since), 0)
}

// flush hands the held frames to the scheduler (a refused batch
// releases its payloads).
func (b *ingestBatch) flush() {
	if b.segs == nil {
		return
	}
	if !b.s.sched.Enqueue(b.t.name, b.segs) {
		b.dropped++
	}
	b.segs = nil
}

// push flushes the batch and waits until everything the tenant queued
// has been dispatched and scanned, so the stream's alerts are out.
func (b *ingestBatch) push() {
	b.flush()
	b.s.sched.Flush(b.t.name)
	if d := b.t.disp.Load(); d != nil {
		d.FlushAll()
	}
}

// DefaultTenant is the tenant implied when requests carry no tenant
// parameter.
const DefaultTenant = "default"

// Config configures a Server.
type Config struct {
	// TenantDefaults fills unset fields of every tenant's config.
	TenantDefaults TenantConfig
	// MaxTenants caps the number of named tenants (default 64).
	MaxTenants int
	// MaxScanBytes caps one /v1/scan body (default 16 MiB).
	MaxScanBytes int64
	// MaxRulesBytes caps one uploaded rule database (default 512 MiB).
	MaxRulesBytes int64
	// OnAlert, when set, receives every flow alert (concurrently, from
	// worker goroutines — must be safe for concurrent use).
	OnAlert func(tenant string, gen uint64, a ids.Alert)

	// IngestIdleTimeout tears down a raw-TCP ingest connection that has
	// carried no frames for this long (default 5m; negative disables).
	// Slow-loris connections hold a goroutine and a socket, nothing
	// else, and only until this fires.
	IngestIdleTimeout time.Duration
	// StreamFrameTimeout bounds how long one /v1/stream frame may take
	// to arrive; a stalled upload is torn down (default 30s; negative
	// disables).
	StreamFrameTimeout time.Duration
	// FollowWriteTimeout bounds each write to a /v1/alerts?follow=1
	// client; a follower that stops reading is disconnected rather than
	// parked forever (default 30s; negative disables).
	FollowWriteTimeout time.Duration
	// FollowHeartbeat is the keep-alive interval for idle follow
	// streams: a bare newline (valid NDJSON filler) proves liveness both
	// ways (default 15s; negative disables).
	FollowHeartbeat time.Duration
	// SchedQuantumBytes is the deficit-round-robin byte quantum per
	// tenant visit on the shared ingest scheduler (default 256 KiB).
	SchedQuantumBytes int
	// IngestQueueBytes bounds each tenant's lane on the shared ingest
	// scheduler — one bound for every lane (default 4 MiB).
	IngestQueueBytes int
}

// Server is the resident scanning daemon. Create with New, expose with
// Handler (plus ServeIngest for the raw-TCP port), stop with Drain.
type Server struct {
	cfg   Config
	start time.Time

	// arena backs ingest frame reads (stream + TCP) and, being the
	// process-wide shared pool, the tenants' dispatcher pipelines.
	arena *arena.Arena

	mu      sync.RWMutex
	tenants map[string]*Tenant

	draining  atomic.Bool
	drainCh   chan struct{} // closed on the first Drain; ends /v1/alerts followers
	drainOnce sync.Once
	ingestWG  sync.WaitGroup // live raw-TCP ingest connections
	// ingestMu makes ServeIngest's draining check and ingestWG.Add one
	// step with respect to Drain raising the flag, so no Add can start
	// once Drain's Wait may be running.
	ingestMu sync.Mutex

	// sched is the fair ingest scheduler: every segment batch from the
	// raw-TCP port and /v1/stream queues here per tenant and reaches the
	// tenants' dispatchers in deficit-round-robin order, so one tenant's
	// flood cannot starve another's modest feed.
	sched     *resil.Scheduler
	schedOnce sync.Once // closes sched exactly once (Drain re-reports)

	// alertHub fans every tenant's flow alerts out to /v1/alerts
	// followers and SubscribeAlerts sinks.
	alertHub *alertHub

	httpStats map[string]*handlerStats
}

// handlerStats instruments one endpoint: a latency histogram plus
// per-status-code request counts.
type handlerStats struct {
	hist  histogram
	mu    sync.Mutex
	codes map[int]uint64
}

var handlerNames = []string{
	"scan", "stream", "rules", "tenants", "alerts", "metrics", "healthz", "readyz", "drain",
}

// New returns an empty server (no tenants). Callers typically create
// the default tenant right away and load its rules.
func New(cfg Config) *Server {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 64
	}
	if cfg.MaxScanBytes <= 0 {
		cfg.MaxScanBytes = 16 << 20
	}
	if cfg.MaxRulesBytes <= 0 {
		cfg.MaxRulesBytes = 512 << 20
	}
	if cfg.TenantDefaults.Shards <= 0 {
		cfg.TenantDefaults.Shards = 1
	}
	if cfg.IngestIdleTimeout == 0 {
		cfg.IngestIdleTimeout = 5 * time.Minute
	}
	if cfg.StreamFrameTimeout == 0 {
		cfg.StreamFrameTimeout = 30 * time.Second
	}
	if cfg.FollowWriteTimeout == 0 {
		cfg.FollowWriteTimeout = 30 * time.Second
	}
	if cfg.FollowHeartbeat == 0 {
		cfg.FollowHeartbeat = 15 * time.Second
	}
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		arena:     arena.Shared(),
		tenants:   make(map[string]*Tenant),
		drainCh:   make(chan struct{}),
		alertHub:  newAlertHub(),
		httpStats: make(map[string]*handlerStats, len(handlerNames)),
	}
	for _, h := range handlerNames {
		s.httpStats[h] = &handlerStats{codes: make(map[int]uint64)}
	}
	// The DRR scheduler's dispatch callback hands each batch to its
	// tenant's dispatcher, which scans it with whatever rules are current
	// when it gets there. A batch whose tenant vanished (deleted, rules
	// never loaded) is dropped with its payloads released, never leaked;
	// so is one reaching a drained tenant's closed dispatcher.
	s.sched = resil.NewScheduler(resil.SchedulerConfig{
		QuantumBytes: cfg.SchedQuantumBytes,
		QueueBytes:   cfg.IngestQueueBytes,
		Dispatch: func(tenant string, segs []netsim.Segment) {
			if t := s.Tenant(tenant); t != nil {
				if d := t.disp.Load(); d != nil {
					d.HandleBatch(segs)
					return
				}
			}
			releaseSegments(segs)
		},
	})
	s.sched.Start()
	return s
}

func releaseSegments(segs []netsim.Segment) {
	for i := range segs {
		segs[i].ReleasePayload()
	}
}

// CreateTenant registers a new named tenant. Unset config fields
// inherit the server defaults.
func (s *Server) CreateTenant(name string, cfg TenantConfig) (*Tenant, error) {
	if !tenantNameRE.MatchString(name) {
		return nil, fmt.Errorf("serve: invalid tenant name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		return nil, fmt.Errorf("serve: tenant %q already exists", name)
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("serve: tenant limit (%d) reached", s.cfg.MaxTenants)
	}
	t := s.newTenant(name, cfg.withDefaults(s.cfg.TenantDefaults))
	s.tenants[name] = t
	return t, nil
}

// Tenant returns a tenant by name, or nil.
func (s *Server) Tenant(name string) *Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// tenantOrCreate returns the named tenant, creating it with default
// config when allowed (used by rules upload so a fresh tenant is one
// request away).
func (s *Server) tenantOrCreate(name string) (*Tenant, error) {
	if t := s.Tenant(name); t != nil {
		return t, nil
	}
	t, err := s.CreateTenant(name, TenantConfig{})
	if err != nil && s.Tenant(name) != nil { // lost a benign creation race
		return s.Tenant(name), nil
	}
	return t, err
}

func (s *Server) tenantNames() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// ready reports whether the daemon should accept traffic: not draining
// and at least one tenant has a loaded rule generation.
func (s *Server) ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	for _, n := range s.tenantNames() {
		if t := s.Tenant(n); t != nil {
			if gen, _, _, _ := t.generationInfo(); gen > 0 {
				return true, "ok"
			}
		}
	}
	return false, "no rules loaded"
}

// DrainReport is the residual state of a completed drain.
type DrainReport struct {
	Clean   bool                   `json:"clean"`
	Tenants map[string]TenantDrain `json:"tenants"`
}

// TenantDrain is one tenant's final tally.
type TenantDrain struct {
	Drained      bool   `json:"drained"`
	Alerts       uint64 `json:"alerts"`
	FlowsClosed  uint64 `json:"flows_closed"`
	FlowsEvicted uint64 `json:"flows_evicted"`
	BytesDropped uint64 `json:"bytes_dropped"`
	// ResidualPendingBytes is out-of-order data still buffered when the
	// pipeline closed — bytes whose gaps never filled.
	ResidualPendingBytes int `json:"residual_pending_bytes"`
}

// SchedStats returns the fair ingest scheduler's counters for one
// tenant lane (zero value for a lane that never enqueued).
func (s *Server) SchedStats(tenant string) resil.QueueStats {
	return s.sched.TenantStats(tenant)
}

// Drain stops accepting scan/stream/rules requests, retires every
// tenant (its dispatcher closes, flushing all shards so every buffered
// alert surfaces), and reports the residual state. Blocks until every
// dispatcher has closed or timeout passes (0 means wait forever).
// Idempotent in effect; every call re-reports.
func (s *Server) Drain(timeout time.Duration) DrainReport {
	s.ingestMu.Lock()
	s.draining.Store(true)
	s.ingestMu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })
	var deadline chan struct{}
	if timeout > 0 {
		deadline = make(chan struct{})
		tm := time.AfterFunc(timeout, func() { close(deadline) })
		defer tm.Stop()
	}
	// Order matters: ingest connections stop enqueuing (they observe the
	// draining flag within a poll interval), then the scheduler drains
	// its queued batches into the still-live dispatchers, then the
	// tenants retire — so no queued segment's alerts are lost to the
	// shutdown itself.
	s.ingestWG.Wait()
	s.schedOnce.Do(func() { s.sched.Close() })
	rep := DrainReport{Clean: true, Tenants: make(map[string]TenantDrain)}
	for _, name := range s.tenantNames() {
		t := s.Tenant(name)
		if t == nil {
			continue
		}
		st, ok := t.shutdown(deadline)
		rep.Tenants[name] = TenantDrain{
			Drained:      ok,
			Alerts:       t.alerts.Load(),
			FlowsClosed:  st.FlowsClosed,
			FlowsEvicted: st.FlowsEvicted,
			BytesDropped: st.BytesDropped,

			ResidualPendingBytes: st.PendingBytes,
		}
		if !ok {
			rep.Clean = false
		}
	}
	return rep
}

// Handler returns the daemon's HTTP surface with per-endpoint latency
// and status instrumentation.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, fn := s.route(r)
		st := s.httpStats[name]
		t0 := time.Now()
		rw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(rw, r)
		st.hist.observe(time.Since(t0))
		st.mu.Lock()
		st.codes[rw.code]++
		st.mu.Unlock()
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming support (the /v1/alerts follow mode) through
// the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer
// for per-request read/write deadlines through the instrumentation
// wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// route resolves a request to (instrumentation name, handler).
func (s *Server) route(r *http.Request) (string, http.HandlerFunc) {
	path := r.URL.Path
	switch path {
	case "/healthz":
		return "healthz", s.handleHealthz
	case "/readyz":
		return "readyz", s.handleReadyz
	case "/metrics":
		return "metrics", s.handleMetrics
	case "/drain":
		return "drain", requireMethod(http.MethodPost, s.handleDrain)
	case "/v1/scan":
		return "scan", requireMethod(http.MethodPost, s.gated(s.handleScan))
	case "/v1/stream":
		return "stream", requireMethod(http.MethodPost, s.gated(s.handleStream))
	case "/v1/tenants":
		return "tenants", requireMethod(http.MethodGet, s.handleTenantList)
	case "/v1/alerts":
		return "alerts", requireMethod(http.MethodGet, s.handleAlerts)
	}
	if rest, ok := strings.CutPrefix(path, "/v1/tenants/"); ok {
		if name, ok := strings.CutSuffix(rest, "/rules"); ok {
			return "rules", requireMethod(http.MethodPost, s.gated(func(w http.ResponseWriter, r *http.Request) {
				s.handleRules(w, r, name)
			}))
		}
		if !strings.Contains(rest, "/") {
			return "tenants", func(w http.ResponseWriter, r *http.Request) {
				s.handleTenant(w, r, rest)
			}
		}
	}
	return "tenants", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "no such endpoint")
	}
}

func requireMethod(m string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != m {
			writeErr(w, http.StatusMethodNotAllowed, "use "+m)
			return
		}
		h(w, r)
	}
}

// gated rejects data-plane requests while draining.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, "draining")
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func tenantParam(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return DefaultTenant
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if ok, reason := s.ready(); !ok {
		writeErr(w, http.StatusServiceUnavailable, reason)
		return
	}
	w.Write([]byte("ready\n"))
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	timeout := 30 * time.Second
	if v := r.URL.Query().Get("timeout"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			timeout = d
		}
	}
	writeJSON(w, http.StatusOK, s.Drain(timeout))
}

// scanResponse is the /v1/scan reply.
type scanResponse struct {
	Tenant     string     `json:"tenant"`
	Generation uint64     `json:"generation"`
	Port       uint16     `json:"port"`
	Bytes      int        `json:"bytes"`
	Matches    []matchOut `json:"matches"`
}

type matchOut struct {
	PatternID int32 `json:"pattern_id"`
	Offset    int64 `json:"offset"`
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	t := s.Tenant(tenantParam(r))
	if t == nil {
		writeErr(w, http.StatusNotFound, "no such tenant")
		return
	}
	port := uint16(0)
	if v := r.URL.Query().Get("port"); v != "" {
		p, err := strconv.ParseUint(v, 10, 16)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad port")
			return
		}
		port = uint16(p)
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxScanBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if int64(len(body)) > s.cfg.MaxScanBytes {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("scan body exceeds %d bytes", s.cfg.MaxScanBytes))
		return
	}
	if !t.quota.TryTake(int64(len(body))) {
		writeErr(w, http.StatusTooManyRequests, "tenant byte quota exhausted")
		return
	}
	g := t.cur.Load()
	if g == nil {
		writeErr(w, http.StatusConflict, "tenant has no rules loaded")
		return
	}
	resp := scanResponse{Tenant: t.name, Generation: g.gen, Port: port,
		Bytes: len(body), Matches: []matchOut{}}
	var c vpatch.Counters
	g.eng.ScanBuffer(port, body, &c, func(id int32, pos int64) {
		resp.Matches = append(resp.Matches, matchOut{PatternID: id, Offset: pos})
	})
	t.httpScan.AddCounters(&c)
	writeJSON(w, http.StatusOK, resp)
}

// streamResponse is the /v1/stream reply.
type streamResponse struct {
	Tenant     string `json:"tenant"`
	Generation uint64 `json:"generation"`
	Segments   int    `json:"segments"`
	Bytes      int    `json:"bytes"`
	// DroppedBatches counts segment batches this request offered past
	// the tenant's bounded ingest queue — shed by the fair scheduler
	// (the tenant degraded itself; nobody else lost throughput).
	DroppedBatches int `json:"dropped_batches,omitempty"`
	// AlertsTotal is the tenant's cumulative alert count after this
	// request (alerts surface within a few milliseconds of their
	// segments; pass flush=1 to force pending batches through before the
	// response).
	AlertsTotal uint64 `json:"alerts_total"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	t := s.Tenant(tenantParam(r))
	if t == nil {
		writeErr(w, http.StatusNotFound, "no such tenant")
		return
	}
	// Charge the whole body against the quota up front when its length
	// is declared; chunked uploads are charged per frame.
	charged := false
	if r.ContentLength > 0 {
		if !t.quota.TryTake(r.ContentLength) {
			writeErr(w, http.StatusTooManyRequests, "tenant byte quota exhausted")
			return
		}
		charged = true
	}
	g := t.cur.Load()
	if g == nil {
		writeErr(w, http.StatusConflict, "tenant has no rules loaded")
		return
	}
	resp := streamResponse{Tenant: t.name, Generation: g.gen}
	// Frames land in recycled arena chunks and queue on the tenant's
	// fair-scheduler lane in batches; the DRR rotation hands them to the
	// dispatcher. A held batch is flushed on every return. The hold is
	// checked as frames arrive: a body that stalls keeps its held frames
	// until the next frame, the end of the body or the frame timeout.
	rc := http.NewResponseController(w)
	batch := &ingestBatch{s: s, t: t}
	defer batch.flush()
	var pre [4]byte // frame length prefixes, read without a per-frame allocation
	for {
		// Bound each frame's arrival: a stalled (slow-loris) upload is
		// torn down instead of holding the handler forever. Transports
		// without deadline support (errors ignored) simply stay unbounded.
		if d := s.cfg.StreamFrameTimeout; d > 0 {
			rc.SetReadDeadline(time.Now().Add(d))
		}
		seg, err := readFrame(r.Body, s.arena, &pre)
		if err == io.EOF {
			break
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		if !charged && !t.quota.TryTake(int64(4+segFixedLen+len(seg.Payload))) {
			seg.ReleasePayload()
			writeErr(w, http.StatusTooManyRequests, "tenant byte quota exhausted")
			return
		}
		resp.Segments++
		resp.Bytes += len(seg.Payload)
		batch.add(seg)
	}
	rc.SetReadDeadline(time.Time{})
	if r.URL.Query().Get("flush") == "1" {
		batch.push()
	} else {
		batch.flush()
	}
	resp.DroppedBatches = batch.dropped
	resp.AlertsTotal = t.alerts.Load()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request, name string) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxRulesBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if int64(len(body)) > s.cfg.MaxRulesBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, "rule database too large")
		return
	}
	t, err := s.tenantOrCreate(name)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	gen, err := t.Reload(body)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	_, rules, algo, _ := t.generationInfo()
	writeJSON(w, http.StatusOK, map[string]any{
		"tenant": t.name, "generation": gen, "rules": rules, "algorithm": algo,
	})
}

// tenantInfo is the GET /v1/tenants/{id} reply.
type tenantInfo struct {
	Name       string       `json:"name"`
	Generation uint64       `json:"generation"`
	Rules      int          `json:"rules"`
	Algorithm  string       `json:"algorithm,omitempty"`
	ReloadAge  float64      `json:"reload_age_seconds"`
	Alerts     uint64       `json:"alerts_total"`
	Rejected   uint64       `json:"quota_rejected_total"`
	Config     TenantConfig `json:"config"`
}

func (s *Server) tenantInfoFor(t *Tenant) tenantInfo {
	gen, rules, algo, age := t.generationInfo()
	return tenantInfo{
		Name: t.name, Generation: gen, Rules: rules, Algorithm: algo,
		ReloadAge: age, Alerts: t.alerts.Load(), Rejected: t.quota.Denied(),
		Config: t.cfg,
	}
}

func (s *Server) handleTenantList(w http.ResponseWriter, _ *http.Request) {
	out := []tenantInfo{}
	for _, name := range s.tenantNames() {
		if t := s.Tenant(name); t != nil {
			out = append(out, s.tenantInfoFor(t))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request, name string) {
	switch r.Method {
	case http.MethodPut:
		if s.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, "draining")
			return
		}
		var cfg TenantConfig
		if r.ContentLength != 0 {
			// A misspelled field must not create a tenant without the
			// setting it meant to carry.
			dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
			dec.DisallowUnknownFields()
			err := dec.Decode(&cfg)
			if err == nil && dec.Decode(&json.RawMessage{}) != io.EOF {
				err = fmt.Errorf("trailing data after the config object")
			}
			if err != nil {
				writeErr(w, http.StatusBadRequest, "bad tenant config: "+err.Error())
				return
			}
		}
		t, err := s.CreateTenant(name, cfg)
		if err != nil {
			writeErr(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, s.tenantInfoFor(t))
	case http.MethodGet:
		t := s.Tenant(name)
		if t == nil {
			writeErr(w, http.StatusNotFound, "no such tenant")
			return
		}
		writeJSON(w, http.StatusOK, s.tenantInfoFor(t))
	case http.MethodDelete:
		s.mu.Lock()
		t := s.tenants[name]
		delete(s.tenants, name)
		s.mu.Unlock()
		if t == nil {
			writeErr(w, http.StatusNotFound, "no such tenant")
			return
		}
		deadline := make(chan struct{})
		tm := time.AfterFunc(30*time.Second, func() { close(deadline) })
		defer tm.Stop()
		_, ok := t.shutdown(deadline)
		writeJSON(w, http.StatusOK, map[string]any{"tenant": name, "drained": ok})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use PUT, GET or DELETE")
	}
}

// handleMetrics renders the Prometheus text exposition: matcher,
// accel, reassembly and per-tenant counters, reload generation/age,
// and request latency histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder

	type row struct {
		name string
		t    *Tenant
	}
	var rows []row
	for _, name := range s.tenantNames() {
		if t := s.Tenant(name); t != nil {
			rows = append(rows, row{name, t})
		}
	}
	scans := make([]vpatch.Counters, len(rows))
	flows := make([]netsim.Stats, len(rows))
	for i, r := range rows {
		scans[i] = r.t.scanCounters()
		flows[i] = r.t.lifecycleStats()
	}

	counter := func(name, help string, get func(i int) float64) {
		promFamily(&b, name, "counter", help)
		for i, r := range rows {
			promSample(&b, name, tenantLabel(r.name), get(i))
		}
	}
	gauge := func(name, help string, get func(i int) float64) {
		promFamily(&b, name, "gauge", help)
		for i, r := range rows {
			promSample(&b, name, tenantLabel(r.name), get(i))
		}
	}

	// Matcher counters.
	counter("vpatch_scanned_bytes_total", "Payload bytes scanned by the matchers.",
		func(i int) float64 { return float64(scans[i].BytesScanned) })
	counter("vpatch_matches_total", "Pattern occurrences found (stream and one-shot scans).",
		func(i int) float64 { return float64(scans[i].Matches) })
	counter("vpatch_verify_bytes_total", "Pattern bytes compared during verification.",
		func(i int) float64 { return float64(scans[i].VerifyBytes) })
	promFamily(&b, "vpatch_scan_seconds_total", "counter", "Time inside scans by round: matcher filtering, matcher verification, rule evaluation (other).")
	for i, r := range rows {
		promSample(&b, "vpatch_scan_seconds_total", tenantLabel(r.name)+`,round="filter"`, float64(scans[i].FilteringNs)/1e9)
		promSample(&b, "vpatch_scan_seconds_total", tenantLabel(r.name)+`,round="verify"`, float64(scans[i].VerifyNs)/1e9)
		promSample(&b, "vpatch_scan_seconds_total", tenantLabel(r.name)+`,round="other"`, float64(scans[i].OtherNs)/1e9)
	}
	counter("vpatch_deadline_flushes_total", "Shard group batches scanned because their oldest payload waited the alert-delay bound (the rest flush at a watermark, a teardown or an explicit flush).",
		func(i int) float64 { return float64(scans[i].DeadlineFlushes) })

	// Rule tier (rule-conditioned databases only; zero otherwise).
	counter("vpatch_rule_alerts_total", "Completed rule alerts (all clauses satisfied, regex verified).",
		func(i int) float64 { return float64(scans[i].RuleAlerts) })
	counter("vpatch_verifier_runs_total", "Regex verifier invocations at literal-hit anchors.",
		func(i int) float64 { return float64(scans[i].VerifierRuns) })
	counter("vpatch_verifier_states_total", "Lazy-DFA states built across verifier runs.",
		func(i int) float64 { return float64(scans[i].VerifierStates) })

	// Resilience: match-flood degradation and fault recovery.
	counter("vpatch_verifier_budget_exhausted_total", "Verifier budget exhaustions (flow or tenant pool ran dry).",
		func(i int) float64 { return float64(scans[i].VerifierBudgetExhausted) })
	counter("vpatch_degraded_flows_total", "Flows demoted to literal-only alerting by the verifier budget.",
		func(i int) float64 { return float64(scans[i].DegradedFlows) })
	counter("vpatch_panics_recovered_total", "Per-segment panics recovered by shard workers.",
		func(i int) float64 { return float64(scans[i].PanicsRecovered) })
	counter("vpatch_flows_quarantined_total", "Flows quarantined after causing a shard panic.",
		func(i int) float64 { return float64(scans[i].FlowsQuarantined) })

	// Fair ingest scheduler (deficit round-robin across tenants).
	scheds := make([]resil.QueueStats, len(rows))
	for i, r := range rows {
		scheds[i] = s.sched.TenantStats(r.name)
	}
	counter("vpatch_sched_dispatched_bytes_total", "Segment bytes the fair scheduler handed to dispatchers.",
		func(i int) float64 { return float64(scheds[i].DispatchedBytes) })
	counter("vpatch_sched_dropped_batches_total", "Ingest batches shed at the tenant's bounded scheduler queue.",
		func(i int) float64 { return float64(scheds[i].DroppedBatches) })
	counter("vpatch_sched_dropped_bytes_total", "Segment bytes shed at the tenant's bounded scheduler queue.",
		func(i int) float64 { return float64(scheds[i].DroppedBytes) })
	gauge("vpatch_sched_queued_bytes", "Segment bytes waiting on the tenant's scheduler queue.",
		func(i int) float64 { return float64(scheds[i].QueuedBytes) })

	// Acceleration counters.
	counter("vpatch_accel_skipped_bytes_total", "Input bytes cleared by the skip-loop accelerator without probing.",
		func(i int) float64 { return float64(scans[i].SkippedBytes) })
	counter("vpatch_accel_chances_total", "Skip-loop governor spans scanned (at most 2 KiB of accelerated scanning each).",
		func(i int) float64 { return float64(scans[i].AccelChances) })
	counter("vpatch_accel_runs_total", "Governor spans whose viable fraction kept the skip loop engaged.",
		func(i int) float64 { return float64(scans[i].AccelRuns) })

	// Reassembly / flow lifecycle.
	gauge("vpatch_flows", "Currently tracked flows (including close tombstones).",
		func(i int) float64 { return float64(flows[i].Flows) })
	gauge("vpatch_flows_peak", "Peak simultaneously tracked flows (summed across shards).",
		func(i int) float64 { return float64(flows[i].PeakFlows) })
	counter("vpatch_flows_closed_total", "Flows torn down normally (FIN/RST).",
		func(i int) float64 { return float64(flows[i].FlowsClosed) })
	counter("vpatch_flows_evicted_total", "Open flows evicted by the flow cap or idle timeout.",
		func(i int) float64 { return float64(flows[i].FlowsEvicted) })
	counter("vpatch_reasm_dropped_bytes_total", "Payload bytes dropped by the reassembler (budgets, evictions, post-teardown).",
		func(i int) float64 { return float64(flows[i].BytesDropped) })
	counter("vpatch_gap_skips_total", "Sequence gaps abandoned by mid-stream resynchronization.",
		func(i int) float64 { return float64(flows[i].GapSkips) })
	gauge("vpatch_reasm_pending_bytes", "Buffered out-of-order bytes.",
		func(i int) float64 { return float64(flows[i].PendingBytes) })

	// Tenant / reload state.
	counter("vpatch_alerts_total", "Flow alerts delivered.",
		func(i int) float64 { return float64(rows[i].t.alerts.Load()) })
	counter("vpatch_quota_rejected_total", "Requests rejected by the tenant byte quota.",
		func(i int) float64 { return float64(rows[i].t.quota.Denied()) })
	promFamily(&b, "vpatch_rules_generation", "gauge", "Rule database generation (0 = none loaded; increments on every hot swap).")
	gens := make([]struct {
		gen   uint64
		rules int
		age   float64
	}, len(rows))
	for i, r := range rows {
		gens[i].gen, gens[i].rules, _, gens[i].age = r.t.generationInfo()
		promSample(&b, "vpatch_rules_generation", tenantLabel(r.name), float64(gens[i].gen))
	}
	promFamily(&b, "vpatch_rules", "gauge", "Patterns in the tenant's loaded rule set.")
	for i, r := range rows {
		promSample(&b, "vpatch_rules", tenantLabel(r.name), float64(gens[i].rules))
	}
	promFamily(&b, "vpatch_rules_age_seconds", "gauge", "Seconds since the tenant's last rule swap.")
	for i, r := range rows {
		promSample(&b, "vpatch_rules_age_seconds", tenantLabel(r.name), gens[i].age)
	}

	// Arena (recycled ingest-buffer pool) gauges — process-wide, the
	// pool is shared by every tenant's ingest path.
	ast := s.arena.Stats()
	promFamily(&b, "vpatch_arena_chunks_in_use", "gauge", "Arena chunks rented and not yet released.")
	promSample(&b, "vpatch_arena_chunks_in_use", "", float64(ast.InUse))
	promFamily(&b, "vpatch_arena_chunks_peak", "gauge", "High-water mark of simultaneously rented arena chunks.")
	promSample(&b, "vpatch_arena_chunks_peak", "", float64(ast.Peak))
	promFamily(&b, "vpatch_arena_pooled_bytes", "gauge", "Bytes of pooled arena chunks allocated under the cap.")
	promSample(&b, "vpatch_arena_pooled_bytes", "", float64(ast.PooledBytes))
	promFamily(&b, "vpatch_arena_overflow_total", "counter", "Arena rents served by one-shot heap allocations (pool cap exceeded).")
	promSample(&b, "vpatch_arena_overflow_total", "", float64(ast.Overflows))

	// Alert stream.
	abuf, asubs, alost := s.alertHub.stats()
	promFamily(&b, "vpatch_alert_stream_buffered", "gauge", "Alerts held in the /v1/alerts replay ring.")
	promSample(&b, "vpatch_alert_stream_buffered", "", float64(abuf))
	promFamily(&b, "vpatch_alert_stream_subscribers", "gauge", "Live alert-stream followers.")
	promSample(&b, "vpatch_alert_stream_subscribers", "", float64(asubs))
	promFamily(&b, "vpatch_alert_stream_dropped_total", "counter", "Alert records dropped on slow followers.")
	promSample(&b, "vpatch_alert_stream_dropped_total", "", float64(alost))

	// Process-level state.
	promFamily(&b, "vpatch_draining", "gauge", "1 while the daemon is draining.")
	v := 0.0
	if s.draining.Load() {
		v = 1
	}
	promSample(&b, "vpatch_draining", "", v)
	promFamily(&b, "vpatch_uptime_seconds", "gauge", "Seconds since the daemon started.")
	promSample(&b, "vpatch_uptime_seconds", "", time.Since(s.start).Seconds())
	promFamily(&b, "vpatch_tenants", "gauge", "Registered tenants.")
	promSample(&b, "vpatch_tenants", "", float64(len(rows)))
	promFamily(&b, "vpatch_kernel_info", "gauge", "Extract kernel the filtering engines dispatch to on this host (constant 1).")
	promSample(&b, "vpatch_kernel_info", `kernel="`+vpatch.ActiveKernel().String()+`"`, 1)

	// HTTP request instrumentation.
	promFamily(&b, "vpatch_http_requests_total", "counter", "HTTP requests by handler and status code.")
	for _, h := range handlerNames {
		st := s.httpStats[h]
		st.mu.Lock()
		codes := make([]int, 0, len(st.codes))
		for c := range st.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			promSample(&b, "vpatch_http_requests_total",
				fmt.Sprintf("handler=%q,code=\"%d\"", h, c), float64(st.codes[c]))
		}
		st.mu.Unlock()
	}
	promFamily(&b, "vpatch_http_request_duration_seconds", "histogram", "HTTP request latency by handler.")
	for _, h := range handlerNames {
		s.httpStats[h].hist.writeTo(&b, "vpatch_http_request_duration_seconds",
			fmt.Sprintf("handler=%q", h))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
