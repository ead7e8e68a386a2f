package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/netsim"
	"vpatch/internal/patterns"
	"vpatch/internal/resil"
	"vpatch/internal/serve"
)

// compiled is a workload's rule DB, as an operator's compile step
// leaves it.
type compiled struct {
	eng      *ids.Engine
	blob     []byte
	canary   alertIDs
	compileS float64
	writeDBS float64
}

// compileDB turns rule text into a .vpdb blob the way vpatch-serve's
// loadRuleBlob does.
func compileDB(w *workload, text string) (*compiled, error) {
	sink := func(ids.Alert) {}
	t0 := time.Now()
	var eng *ids.Engine
	if w.ruleMode {
		rset, err := vpatch.ParseRuleSet(strings.NewReader(text), vpatch.RuleParseOptions{})
		if err != nil {
			return nil, err
		}
		if eng, err = ids.NewRuleEngine(rset, vpatch.Options{}, sink); err != nil {
			return nil, err
		}
	} else {
		set, err := patterns.ParseRules(strings.NewReader(text), patterns.ParseOptions{})
		if err != nil {
			return nil, err
		}
		if eng, err = ids.NewEngine(set, vpatch.Options{}, sink); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if _, err := eng.WriteDB(&buf); err != nil {
		return nil, err
	}
	cid, err := findCanary(eng)
	if err != nil {
		return nil, err
	}
	return &compiled{eng: eng, blob: buf.Bytes(), canary: cid,
		compileS: t1.Sub(t0).Seconds(), writeDBS: time.Since(t1).Seconds()}, nil
}

// harness is one running in-process vpatch-serve plus the alert tap.
type harness struct {
	srv       *serve.Server
	ln        net.Listener
	serveDone chan error
	canary    alertIDs
	epoch     time.Time
	cur       atomic.Pointer[tally] // the running phase's tally; nil between phases
	serial    uint32                // next unused flow serial
	stopped   bool

	reloadS float64
}

// startServer brings the daemon up on a loopback port with
// cmd/vpatch-serve's flag defaults and loads db into the default
// tenant.
func startServer(db *compiled) (*harness, error) {
	h := &harness{canary: db.canary, epoch: time.Now(), serial: 1 << 16}
	h.srv = serve.New(serve.Config{
		TenantDefaults: serve.TenantConfig{
			Shards: shards, MaxFlows: maxFlows, FlowTimeout: flowTimeout,
			FlowPendingBytes: flowPending, TotalPendingBytes: totalPending,
			VerifierFlowBudget: verifierFlow,
		},
		OnAlert: func(_ string, _ uint64, a ids.Alert) {
			if t := h.cur.Load(); t != nil {
				t.onAlert(a)
			}
		},
	})
	def, err := h.srv.CreateTenant(tenantName, serve.TenantConfig{})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := def.Reload(db.blob); err != nil {
		return nil, err
	}
	h.reloadS = time.Since(t0).Seconds()
	if h.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	h.serveDone = make(chan error, 1)
	go func() { h.serveDone <- h.srv.ServeIngest(h.ln) }()
	return h, nil
}

// stop drains the daemon and reports whether the drain was clean. Only
// the first call does anything.
func (h *harness) stop() (bool, error) {
	if h.stopped {
		return true, nil
	}
	h.stopped = true
	// Stop accepting first and wait for the accept loop to return: every
	// connection it registered is then ordered before Drain's wait.
	h.ln.Close()
	if err := <-h.serveDone; err != nil && !errors.Is(err, net.ErrClosed) {
		return false, fmt.Errorf("ingest listener: %w", err)
	}
	return h.srv.Drain(30 * time.Second).Clean, nil
}

// dial opens the one ingest connection a phase sends on.
func (h *harness) dial() (*net.TCPConn, error) {
	conn, err := serve.DialIngest(h.ln.Addr().String(), tenantName)
	if err != nil {
		return nil, err
	}
	return conn.(*net.TCPConn), nil
}

// finish half-closes conn and waits for the server to close its side,
// which it does only after queueing the last batch, draining the
// tenant's scheduler lane and flushing every shard: when finish
// returns, every alert of the connection's segments has been emitted.
func finish(conn *net.TCPConn) error {
	if err := conn.CloseWrite(); err != nil {
		return err
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		return err
	}
	return conn.Close()
}

// setUp measures one cold start: rule text -> engine -> WriteDB ->
// serve.New/CreateTenant/Reload -> listen -> first frame accepted.
func setUp(w *workload, text string) (*harness, *compiled, float64, error) {
	t0 := time.Now()
	db, err := compileDB(w, text)
	if err != nil {
		return nil, nil, 0, err
	}
	h, err := startServer(db)
	if err != nil {
		return nil, nil, 0, err
	}
	conn, err := h.dial()
	if err != nil {
		return nil, nil, 0, err
	}
	probe := netsim.Segment{
		Flow:    netsim.FlowKey{SrcIP: 1, DstIP: 1, SrcPort: 1, DstPort: 80},
		Payload: []byte("probe"), TsMicros: 1, Flags: netsim.FlagFIN,
	}
	if _, err := conn.Write(serve.AppendSegment(nil, probe)); err != nil {
		return nil, nil, 0, err
	}
	if err := finish(conn); err != nil {
		return nil, nil, 0, err
	}
	return h, db, time.Since(t0).Seconds(), nil
}

// pace gives delivery units their due times in a paced (open-loop)
// phase: by cumulative payload bytes, or by unit count. The zero value
// is unpaced.
type pace struct {
	nsPerByte, nsPerSeg float64
}

func paceMbps(mbps float64) pace   { return pace{nsPerByte: 8e3 / mbps} }
func paceSegs(perSec float64) pace { return pace{nsPerSeg: 1e9 / perSec} }

func (p pace) on() bool { return p.nsPerByte > 0 || p.nsPerSeg > 0 }

// due is the offset from phase start at which the unit that follows
// bytes payload bytes and segs units is due.
func (p pace) due(bytes, segs uint64) int64 {
	return int64(p.nsPerByte*float64(bytes) + p.nsPerSeg*float64(segs))
}

// window is the sat phase's closed loop: at most limit payload bytes
// outstanding, where outstanding = admitted - done and done is what
// the scheduler reports dispatched or dropped. The ingest path sheds
// instead of back-pressuring, so an unbounded blast would punch holes
// in flows and measure a different program.
type window struct {
	limit, admitted uint64
}

func (w *window) admit(n, done uint64) bool {
	if w.admitted+n-done > w.limit {
		return false
	}
	w.admitted += n
	return true
}

// sender is the load generator: one goroutine writing a corpus's
// frames to one writer.
type sender struct {
	c     *corpus
	out   io.Writer
	base  uint32 // serial of pass 0, flow 0
	tally *tally // nil: no canary bookkeeping (generator-only rung)
	epoch time.Time

	pace  pace
	group int           // frames per write
	win   *window       // nil: no closed loop
	done  func() uint64 // payload bytes the scheduler has taken off the queue

	// Results.
	sets         int
	segs         uint64
	payloadBytes uint64
	lateMs       []float64 // per unit of a paced phase: written - due
	imbalance    float64   // mean over sets of max shard bytes / mean shard bytes
	// passAt and passCPU are the wall clock and the process CPU clock at
	// the start of every pass. Each pass after the first carries exactly
	// one set's bytes (the heads of one set, the tails of the one before).
	passAt  []time.Time
	passCPU []int64
}

// run sends whole sets until more(sets sent) turns false, then the
// closing pass.
func (s *sender) run(more func(sets int) bool) error {
	c := s.c
	start := time.Now()
	startNs := int64(start.Sub(s.epoch))
	var (
		lo, hi  int // pending frame bytes c.wire[lo:hi]
		n       int
		gbytes  uint64
		dues    [satGroup]int64
		canary  [satGroup]*canarySlot
		ncanary int
	)
	flush := func() error {
		if n == 0 {
			return nil
		}
		for s.win != nil && !s.win.admit(gbytes, s.done()) {
			time.Sleep(200 * time.Microsecond)
		}
		now := time.Since(start)
		if s.pace.on() {
			for _, d := range dues[:n] {
				s.lateMs = append(s.lateMs, float64(max(int64(now)-d, 0))/1e6)
			}
		}
		sent := int64(time.Since(s.epoch))
		for _, slot := range canary[:ncanary] {
			slot.sent.Store(sent)
		}
		_, err := s.out.Write(c.wire[lo:hi])
		n, gbytes, ncanary = 0, 0, 0
		return err
	}

	var page, prev []canarySlot
	keys, prevKeys := make([]netsim.FlowKey, c.flows), make([]netsim.FlowKey, c.flows)
	for p := 0; ; p++ {
		closing := p > 0 && !more(p)
		if p >= maxPasses-1 {
			closing = true
		}
		prev, keys, prevKeys = page, prevKeys, keys
		s.passAt, s.passCPU = append(s.passAt, time.Now()), append(s.passCPU, cpuNanos())
		if !closing {
			for f := range keys {
				keys[f] = c.key(f, p, s.base)
			}
			s.imbalance += c.imbalance(p, s.base)
			if s.tally != nil {
				page = s.tally.openPass(p)
			}
		}
		for i := range c.units {
			u := &c.units[i]
			if u.tail && p == 0 || !u.tail && closing {
				continue
			}
			key, slots := keys[u.flow], page
			if u.tail {
				key, slots = prevKeys[u.flow], prev
			}
			var due int64
			if s.pace.on() {
				due = s.pace.due(s.payloadBytes, s.segs)
				if wait := due - int64(time.Since(start)); wait > 0 {
					if err := flush(); err != nil {
						return err
					}
					time.Sleep(time.Duration(wait))
				}
			}
			if n > 0 && u.off != hi {
				if err := flush(); err != nil {
					return err
				}
			}
			if n == 0 {
				lo = u.off
			}
			now := time.Since(s.epoch)
			c.patch(u, key, uint64(now/time.Microsecond)+1_000_000)
			if u.canary && slots != nil {
				slot := &slots[u.flow]
				if s.pace.on() {
					slot.due.Store(startNs + due)
				} else {
					slot.due.Store(int64(now))
				}
				canary[ncanary] = slot
				ncanary++
			}
			dues[n] = due
			hi = u.off + u.n
			n++
			gbytes += uint64(u.payload)
			s.segs++
			s.payloadBytes += uint64(u.payload)
			if n == s.group {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if closing {
			s.sets = p
			s.imbalance /= float64(p)
			return flush()
		}
	}
}

// phaseSpec is one load phase over one corpus.
type phaseSpec struct {
	name string
	c    *corpus
	ref  *multiset
	// dur: keep sending whole sets until this much time has passed.
	// sets: if > 0, send exactly this many instead.
	dur  time.Duration
	sets int
	pace pace
	// sat: closed loop with satWindow outstanding, unpaced.
	sat bool
}

// phaseResult is what one phase measured.
type phaseResult struct {
	name        string
	sets        int
	segs        uint64
	streamBytes uint64 // unique payload bytes
	wall        time.Duration
	cpuNs       int64
	// setGbps and setCPUPerByte are the goodput and the process CPU per
	// unique payload byte of each full pass, one set's worth of bytes
	// each, start-up and drain excluded.
	setGbps, setCPUPerByte []float64

	latMs     []float64 // canary due -> OnAlert
	lateMs    []float64 // generator lateness per unit (paced phases)
	canaries  []canarySpan
	imbalance float64
	sched     resil.QueueStats // deltas over the phase
	failed    uint64
	attempted uint64
	problems  []string
}

// canarySpan is one canary's timeline in ns since the harness epoch.
type canarySpan struct{ due, sent, got int64 }

// runPhase drives one phase from one sender goroutine on one
// connection and checks its alert multiset against the reference.
// sp.ref nil skips the check (calibration loads, whose alerts nobody
// times).
func (h *harness) runPhase(sp phaseSpec) (*phaseResult, error) {
	c := sp.c
	t := newTally(h.serial, c.flows, h.canary, h.epoch)
	if sp.ref != nil {
		h.cur.Store(t)
		defer h.cur.Store(nil)
	}
	before := h.srv.SchedStats(tenantName)
	conn, err := h.dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	s := &sender{c: c, out: conn, base: h.serial, tally: t, epoch: h.epoch, pace: sp.pace, group: pacedGroup}
	if sp.sat {
		s.group = satGroup
		s.win = &window{limit: satWindow}
		s.done = func() uint64 {
			st := h.srv.SchedStats(tenantName)
			return st.DispatchedBytes + st.DroppedBytes - before.DispatchedBytes - before.DroppedBytes
		}
	}
	cpu0, t0 := cpuNanos(), time.Now()
	err = s.run(func(sets int) bool {
		if sp.sets > 0 {
			return sets < sp.sets
		}
		return time.Since(t0) < sp.dur
	})
	if err != nil {
		return nil, fmt.Errorf("%s: sending: %w", sp.name, err)
	}
	if err := finish(conn); err != nil {
		return nil, fmt.Errorf("%s: waiting for the server to flush: %w", sp.name, err)
	}
	r := &phaseResult{
		name: sp.name, sets: s.sets, segs: s.segs,
		streamBytes: uint64(s.sets) * c.streamBytes,
		wall:        time.Since(t0), cpuNs: cpuNanos() - cpu0,
		lateMs: s.lateMs, imbalance: s.imbalance,
	}
	for p := 1; p < s.sets; p++ {
		wall := s.passAt[p+1].Sub(s.passAt[p])
		r.setGbps = append(r.setGbps, float64(c.streamBytes)*8/float64(wall.Nanoseconds()))
		r.setCPUPerByte = append(r.setCPUPerByte, float64(s.passCPU[p+1]-s.passCPU[p])/float64(c.streamBytes))
	}
	h.serial += uint32((s.sets + 1) * c.flows)

	after := h.srv.SchedStats(tenantName)
	r.sched = resil.QueueStats{
		DispatchedBatches: after.DispatchedBatches - before.DispatchedBatches,
		DispatchedBytes:   after.DispatchedBytes - before.DispatchedBytes,
		DroppedBatches:    after.DroppedBatches - before.DroppedBatches,
		DroppedBytes:      after.DroppedBytes - before.DroppedBytes,
	}

	if sp.ref == nil {
		return r, nil
	}
	// Loss accounting: segments shed, canaries never alerted, alerts
	// missing or extra against the reference.
	want := sp.ref.times(uint64(s.sets))
	got := t.sum()
	r.attempted = s.segs + want.canaries + want.n
	if r.sched.DroppedBytes > 0 {
		shed := r.sched.DroppedBytes * s.segs / s.payloadBytes
		r.failed += max(shed, 1)
		r.problems = append(r.problems, fmt.Sprintf("%s: scheduler shed %d bytes in %d batches", sp.name, r.sched.DroppedBytes, r.sched.DroppedBatches))
	}
	for p := 0; p < s.sets; p++ {
		page := *t.pages[p].Load()
		for f := range page {
			cs := canarySpan{page[f].due.Load(), page[f].sent.Load(), page[f].got.Load()}
			if cs.got == 0 {
				r.failed++
				continue
			}
			r.canaries = append(r.canaries, cs)
			r.latMs = append(r.latMs, float64(cs.got-cs.due)/1e6)
		}
	}
	if d := absDiff(got.canaries, want.canaries); d > 0 {
		r.failed += d
		r.problems = append(r.problems, fmt.Sprintf("%s: %d canary alerts, want %d", sp.name, got.canaries, want.canaries))
	}
	switch d := absDiff(got.n, want.n); {
	case d > 0:
		r.failed += d
		r.problems = append(r.problems, fmt.Sprintf("%s: %d alerts, want %d", sp.name, got.n, want.n))
	case got.h != want.h:
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: alert multiset hash %016x, want %016x", sp.name, got.h, want.h))
	}
	return r, nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
