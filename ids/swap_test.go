package ids

import (
	"sync"
	"testing"

	"vpatch"
	"vpatch/internal/netsim"
	"vpatch/internal/resil"
)

// genAlert is an alert tagged with the generation whose sink got it.
type genAlert struct {
	gen int
	Alert
}

// swapRig drives a one-shard dispatcher through rule swaps: every
// send is one in-order segment followed by FlushAll, and every alert is
// recorded with the generation of the sink that delivered it.
type swapRig struct {
	d   *Dispatcher
	mu  sync.Mutex
	got []genAlert
	seq map[netsim.FlowKey]uint32
}

func newSwapRig(e *Engine, b resil.VerifierBudget) *swapRig {
	r := &swapRig{seq: map[netsim.FlowKey]uint32{}}
	r.d = e.NewBatchDispatcher(1, netsim.Limits{}, r.sink(1))
	r.d.SetVerifierBudget(b)
	r.d.Observe()
	return r
}

func (r *swapRig) sink(gen int) func([]Alert) {
	return func(as []Alert) {
		r.mu.Lock()
		for _, a := range as {
			r.got = append(r.got, genAlert{gen, a})
		}
		r.mu.Unlock()
	}
}

func (r *swapRig) send(k netsim.FlowKey, data string) {
	r.d.HandleBatch([]netsim.Segment{{Flow: k, Seq: r.seq[k], Payload: []byte(data)}})
	r.seq[k] += uint32(len(data))
	r.d.FlushAll()
}

func (r *swapRig) swap(gen int, e *Engine) { r.d.Swap(e, r.sink(gen)) }

func (r *swapRig) alerts() []genAlert {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]genAlert(nil), r.got...)
}

func (r *swapRig) counters() vpatch.Counters { return r.d.Observe().Counters() }

func ruleEngine(t *testing.T, window int64, lines ...string) *Engine {
	t.Helper()
	e, err := NewRuleEngine(parseRules(t, window, lines...), vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func literalEngine(t *testing.T, proto vpatch.Protocol, pats ...string) *Engine {
	t.Helper()
	set := vpatch.NewPatternSet()
	for _, p := range pats {
		set.Add([]byte(p), false, proto)
	}
	e, err := NewEngine(set, vpatch.Options{}, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDispatcherSwap pins what a flow keeps and what it settles when
// Swap moves its shard onto another engine under live traffic.
func TestDispatcherSwap(t *testing.T) {
	t.Run("alerted sid stays alerted", func(t *testing.T) {
		e1 := ruleEngine(t, 0,
			`alert tcp any any -> any 80 (msg:"a"; content:"evil-one"; sid:7;)`,
			`alert tcp any any -> any 80 (msg:"b"; content:"other-two"; sid:8;)`)
		// Same sids, other rule IDs, one rule more.
		e2 := ruleEngine(t, 0,
			`alert tcp any any -> any 80 (msg:"n"; content:"brand-new"; sid:9;)`,
			`alert tcp any any -> any 80 (msg:"b"; content:"other-two"; sid:8;)`,
			`alert tcp any any -> any 80 (msg:"a"; content:"evil-one"; sid:7;)`)
		r := newSwapRig(e1, resil.VerifierBudget{})
		defer r.d.Close()
		k, fresh := key(1, 80), key(2, 80)
		r.send(k, "xx evil-one xx")
		r.swap(2, e2)
		r.send(k, "yy evil-one brand-new yy")
		r.send(fresh, "evil-one")
		type sidAt struct {
			gen  int
			flow netsim.FlowKey
			sid  int64
		}
		var got []sidAt
		for _, a := range r.alerts() {
			e := map[int]*Engine{1: e1, 2: e2}[a.gen]
			got = append(got, sidAt{a.gen, a.Flow, e.Rules().Rules[a.RuleID].SID})
		}
		want := []sidAt{{1, k, 7}, {2, k, 9}, {2, fresh, 7}}
		if len(got) != len(want) {
			t.Fatalf("alerts %+v, want %+v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("alerts %+v, want %+v", got, want)
			}
		}
	})

	t.Run("suspended anchor settled", func(t *testing.T) {
		// The verifier runs anchored at "q=": "ab" accepts at once, twenty
		// [a-z=] bytes accept late.
		rule := `alert tcp any any -> any 80 (msg:"q"; content:"q="; pcre:"/(ab|[a-z=]{20})/"; sid:5;)`
		e := ruleEngine(t, 64, rule)
		r := newSwapRig(e, resil.VerifierBudget{})
		defer r.d.Close()
		blocked, pending, control := key(1, 80), key(2, 80), key(3, 80)
		// The first anchor is pending, the second accepted behind it.
		r.send(blocked, "q=cdq=ab")
		r.send(pending, "q=cdefg")
		if got := r.alerts(); len(got) != 0 {
			t.Fatalf("alerts before the swap: %+v", got)
		}
		r.swap(2, ruleEngine(t, 64, rule))
		// Settling rejected the pending head: the accepted anchor fired on
		// the old sink before Swap returned.
		if got := r.alerts(); len(got) != 1 || got[0].gen != 1 || got[0].Flow != blocked || got[0].StreamOffset != 4 {
			t.Fatalf("alerts after the swap: %+v, want one gen-1 alert for %v at offset 4", got, blocked)
		}
		// The pending anchor did not survive: bytes that would have
		// completed it raise nothing, while the same bytes complete an
		// anchor begun after the swap.
		r.send(pending, "hijklmnopqrstuvwxyz")
		r.send(control, "q=cdefg")
		r.send(control, "hijklmnopqrstuvwxyz")
		got := r.alerts()
		if len(got) != 2 || got[1].gen != 2 || got[1].Flow != control {
			t.Fatalf("alerts %+v: want only the post-swap anchor of %v to fire", got, control)
		}
	})

	t.Run("degraded flow keeps its budget", func(t *testing.T) {
		rule := `alert tcp any any -> any 80 (msg:"tok"; content:"token="; pcre:"/[0-9a-f]{8}/"; sid:1;)`
		e := ruleEngine(t, 0, rule)
		price := resil.DefaultPrice()
		budget := resil.VerifierBudget{PerFlow: 40 * price.PerRun, Price: price}
		const anchor = "token=zzzzzzzz "
		k := key(1, 80)

		// Without a swap, the flow degrades on its n-th buffer.
		ref := newSwapRig(e, budget)
		n := 0
		for ref.counters().DegradedFlows == 0 && n < 1000 {
			ref.send(k, anchor)
			n++
		}
		ref.d.Close()
		if n < 2 || n >= 1000 {
			t.Fatalf("reference flow degraded on buffer %d; the budget needs retuning", n)
		}

		// A swap before the n-th buffer refills nothing: the flow still
		// degrades on it.
		r := newSwapRig(e, budget)
		defer r.d.Close()
		for i := 0; i < n-1; i++ {
			r.send(k, anchor)
		}
		if c := r.counters(); c.DegradedFlows != 0 {
			t.Fatalf("degraded after %d of %d buffers", n-1, n)
		}
		r.swap(2, ruleEngine(t, 0, rule))
		r.send(k, anchor)
		if c := r.counters(); c.DegradedFlows != 1 {
			t.Fatalf("flow not degraded on buffer %d after a swap: the swap refilled its budget", n)
		}
		// Degraded stays degraded across another swap: its hits surface
		// as literal alerts and buy no verifier run.
		r.swap(3, ruleEngine(t, 0, rule))
		runs := r.counters().VerifierRuns
		r.send(k, "token=deadbeef")
		got := r.alerts()
		if len(got) != 1 || got[0].gen != 3 || got[0].RuleID != -1 || got[0].PatternID < 0 {
			t.Fatalf("degraded flow after a swap raised %+v, want one gen-3 literal alert", got)
		}
		if c := r.counters(); c.VerifierRuns != runs || c.DegradedFlows != 1 {
			t.Fatalf("degraded flow after a swap: verifier runs %d -> %d, degraded %d",
				runs, c.VerifierRuns, c.DegradedFlows)
		}
	})

	t.Run("service losing its group stops scanning", func(t *testing.T) {
		r := newSwapRig(literalEngine(t, vpatch.ProtoHTTP, "http-attack-xyz"), resil.VerifierBudget{})
		defer r.d.Close()
		web, dns := key(1, 80), key(2, 53)
		r.send(web, "some bytes")
		r.swap(2, literalEngine(t, vpatch.ProtoDNS, "dns-poison-abc"))
		if fs := r.d.workers[0].sh.flows[web]; fs != nil {
			t.Fatalf("flow without a group kept scan state %+v", fs)
		}
		scanned := r.counters().BytesScanned
		r.send(web, "http-attack-xyz dns-poison-abc")
		if c := r.counters(); c.BytesScanned != scanned || len(r.alerts()) != 0 {
			t.Fatalf("groupless flow still scanned: bytes %d -> %d, alerts %+v",
				scanned, c.BytesScanned, r.alerts())
		}
		r.send(dns, "dns-poison-abc")
		if got := r.alerts(); len(got) != 1 || got[0].gen != 2 || got[0].Flow != dns {
			t.Fatalf("alerts %+v, want one gen-2 alert for %v", got, dns)
		}
	})

	t.Run("shorter maxLen trims the carry", func(t *testing.T) {
		r := newSwapRig(literalEngine(t, vpatch.ProtoHTTP, "a-signature-thirty-two-bytes-long"), resil.VerifierBudget{})
		defer r.d.Close()
		k := key(1, 80)
		head := "0123456789 padding padding xyzab"
		r.send(k, head)
		if fs := r.d.workers[0].sh.flows[k]; len(fs.carry) != 32 {
			t.Fatalf("carry %d bytes before the swap, want 32", len(fs.carry))
		}
		r.swap(2, literalEngine(t, vpatch.ProtoHTTP, "abcde"))
		if fs := r.d.workers[0].sh.flows[k]; string(fs.carry) != "yzab" || fs.maxLen != 5 {
			t.Fatalf("carry %q (maxLen %d) after the swap, want %q (5)", fs.carry, fs.maxLen, "yzab")
		}
		r.send(k, "cde")
		got := r.alerts()
		if len(got) != 1 || got[0].gen != 2 || got[0].StreamOffset != int64(len(head)-2) {
			t.Fatalf("alerts %+v, want the straddling match at offset %d", got, len(head)-2)
		}
	})

	t.Run("swap after close", func(t *testing.T) {
		e := literalEngine(t, vpatch.ProtoHTTP, "http-attack-xyz")
		d := e.NewBatchDispatcher(2, netsim.Limits{}, func([]Alert) {})
		d.Close()
		d.Swap(e, func([]Alert) { t.Error("sink of a swap after Close was called") })
		d.FlushAll()
	})
}
