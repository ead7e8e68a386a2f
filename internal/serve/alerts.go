package serve

// The alert stream: every flow alert any tenant's pipeline emits is
// resolved to a wire record (rule sid/msg for rule-conditioned
// databases, pattern id otherwise), kept in a bounded replay ring, and
// fanned out to followers — GET /v1/alerts streams them as JSON lines,
// and embedding programs (vpatch-serve's -alerts-out sink) subscribe
// with SubscribeAlerts. Publishing happens per shard batch, never per
// alert: while working through a slab, each dispatcher worker hands over
// the alerts one group flush or flow teardown raised (and the rest at
// every shard flush) as one batch, and the hub resolves, sequences and
// fans the whole batch out under one lock, formatting nothing and
// allocating nothing.
// Publishing never blocks the data path: slow followers lose records
// (counted, exported on /metrics) instead of stalling worker goroutines.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"vpatch/ids"
	"vpatch/internal/rules"
)

// AlertRecord is the JSONL alert shape of GET /v1/alerts and the
// -alerts-out sinks: vpatch-ids's record plus tenant, generation and a
// monotone sequence number (gaps mean records were dropped on a slow
// follower). The addresses marshal as dotted-quad strings.
type AlertRecord struct {
	Seq        uint64     `json:"seq"`
	Tenant     string     `json:"tenant"`
	Generation uint64     `json:"generation"`
	SID        int64      `json:"sid,omitempty"`
	Msg        string     `json:"msg,omitempty"`
	Rule       int32      `json:"rule"`
	Pattern    int32      `json:"pattern"`
	Proto      string     `json:"proto"`
	SrcIP      netip.Addr `json:"src_ip"`
	SrcPort    uint16     `json:"src_port"`
	DstIP      netip.Addr `json:"dst_ip"`
	DstPort    uint16     `json:"dst_port"`
	StreamOff  int64      `json:"stream_off"`
}

// alertRingSize bounds the replay buffer (the last N alerts a plain
// GET /v1/alerts returns); subChanBuf bounds each follower's queue.
const (
	alertRingSize = 1024
	subChanBuf    = 256
)

// alertHub is the fan-out point between tenant pipelines (publishers)
// and followers.
type alertHub struct {
	mu   sync.Mutex
	ring [alertRingSize]AlertRecord
	n    int    // valid records in ring (≤ alertRingSize)
	next uint64 // sequence number of the next record
	subs map[chan AlertRecord]struct{}
	lost uint64 // records dropped on slow followers
}

func newAlertHub() *alertHub {
	return &alertHub{subs: make(map[chan AlertRecord]struct{})}
}

// publishBatch resolves one dispatcher batch into records, stamps them
// with a contiguous run of sequence numbers, buffers them for replay,
// and offers each to every follower without blocking — one lock round
// per batch. With no follower only the records the ring keeps are
// built: a batch longer than the ring would overwrite its own head.
func (h *alertHub) publishBatch(tenant string, gen uint64, rset *rules.Set, as []ids.Alert) {
	h.mu.Lock()
	first := h.next
	h.next += uint64(len(as))
	h.n = min(h.n+len(as), alertRingSize)
	skip := 0
	if len(h.subs) == 0 {
		skip = max(len(as)-alertRingSize, 0)
	}
	for i := skip; i < len(as); i++ {
		seq := first + uint64(i)
		rec := &h.ring[seq%alertRingSize]
		*rec = alertRecord(tenant, gen, rset, as[i])
		rec.Seq = seq
		for ch := range h.subs {
			select {
			case ch <- *rec:
			default:
				h.lost++
			}
		}
	}
	h.mu.Unlock()
}

// subscribe registers a follower and returns its channel plus a replay
// of the buffered records (oldest first). The caller must unsubscribe.
func (h *alertHub) subscribe() (chan AlertRecord, []AlertRecord) {
	ch := make(chan AlertRecord, subChanBuf)
	h.mu.Lock()
	replay := h.buffered()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, replay
}

func (h *alertHub) unsubscribe(ch chan AlertRecord) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
	// Drain so a publisher that won the race into the buffer never
	// matters; the channel is garbage once unregistered.
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// buffered returns the replayable records oldest-first. Caller holds mu.
func (h *alertHub) buffered() []AlertRecord {
	out := make([]AlertRecord, 0, h.n)
	for i := h.next - uint64(h.n); i < h.next; i++ {
		out = append(out, h.ring[i%alertRingSize])
	}
	return out
}

func (h *alertHub) stats() (buffered int, subs int, lost uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n, len(h.subs), h.lost
}

// SubscribeAlerts registers a follower of the server's alert stream:
// the returned channel first receives nothing (no replay — callers
// wanting history use /v1/alerts) and then every subsequent alert from
// any tenant. Slow consumers lose records rather than stalling the
// pipelines. The cancel function must be called to unregister.
func (s *Server) SubscribeAlerts() (<-chan AlertRecord, func()) {
	ch := make(chan AlertRecord, subChanBuf)
	s.alertHub.mu.Lock()
	s.alertHub.subs[ch] = struct{}{}
	s.alertHub.mu.Unlock()
	return ch, func() { s.alertHub.unsubscribe(ch) }
}

// alertRecord resolves a pipeline alert against the generation's rule
// set (nil for literal databases): rule alerts carry the rule's sid and
// msg, literal alerts the pattern id.
func alertRecord(tenant string, gen uint64, rset *rules.Set, a ids.Alert) AlertRecord {
	rec := AlertRecord{
		Tenant: tenant, Generation: gen,
		Rule: a.RuleID, Pattern: a.PatternID, Proto: "tcp",
		SrcIP: ip4(a.Flow.SrcIP), SrcPort: a.Flow.SrcPort,
		DstIP: ip4(a.Flow.DstIP), DstPort: a.Flow.DstPort,
		StreamOff: a.StreamOffset,
	}
	if rset != nil && a.RuleID >= 0 {
		r := &rset.Rules[a.RuleID]
		rec.SID, rec.Msg = r.SID, r.Msg
	}
	return rec
}

// ip4 converts a host-order IPv4 address to netip.Addr.
func ip4(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// handleAlerts serves GET /v1/alerts: the buffered recent alerts as
// JSON lines, optionally filtered with ?tenant=; ?limit=N keeps only
// the newest N. With ?follow=1 the response does not end: buffered
// records replay first, then live alerts stream as they happen until
// the client disconnects or the daemon drains.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = n
	}
	follow := r.URL.Query().Get("follow") == "1"

	match := func(rec AlertRecord) bool {
		return tenant == "" || rec.Tenant == tenant
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	write := func(rec AlertRecord) bool { return enc.Encode(rec) == nil }

	if !follow {
		s.alertHub.mu.Lock()
		replay := s.alertHub.buffered()
		s.alertHub.mu.Unlock()
		replay = filterAlerts(replay, match, limit)
		for _, rec := range replay {
			if !write(rec) {
				return
			}
		}
		return
	}

	// A follower that stops reading must not park this handler forever:
	// every write (records and heartbeats) runs under a write deadline,
	// and idle periods carry newline heartbeats — valid NDJSON filler —
	// so dead connections are discovered within a heartbeat interval
	// instead of holding a subscription slot until the next alert.
	fl, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	armWrite := func() {
		if d := s.cfg.FollowWriteTimeout; d > 0 {
			rc.SetWriteDeadline(time.Now().Add(d))
		}
	}
	ch, replay := s.alertHub.subscribe()
	defer s.alertHub.unsubscribe(ch)
	replay = filterAlerts(replay, match, limit)
	armWrite()
	for _, rec := range replay {
		if !write(rec) {
			return
		}
	}
	if fl != nil {
		fl.Flush()
	}
	var heartbeat <-chan time.Time
	if d := s.cfg.FollowHeartbeat; d > 0 {
		tk := time.NewTicker(d)
		defer tk.Stop()
		heartbeat = tk.C
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.drainCh:
			return
		case <-heartbeat:
			armWrite()
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case rec := <-ch:
			// Replayed records may race into the subscription; the
			// sequence numbers keep the stream deduplicatable, but skip
			// the easy case where the overlap is still in order.
			if len(replay) > 0 && rec.Seq <= replay[len(replay)-1].Seq {
				continue
			}
			if !match(rec) {
				continue
			}
			armWrite()
			if !write(rec) {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// filterAlerts keeps the matching records and then only the newest
// limit of them (limit < 0 = unlimited).
func filterAlerts(recs []AlertRecord, match func(AlertRecord) bool, limit int) []AlertRecord {
	out := recs[:0]
	for _, rec := range recs {
		if match(rec) {
			out = append(out, rec)
		}
	}
	if limit >= 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}
