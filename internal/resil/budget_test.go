package resil

import (
	"testing"
	"time"
)

func TestPoolChargeAndDeny(t *testing.T) {
	p := NewPool(1000, 100)
	if !p.TryTake(60) || !p.TryTake(40) {
		t.Fatal("burst capacity not available")
	}
	if p.TryTake(1000) {
		t.Fatal("charge beyond tokens succeeded")
	}
	if p.Denied() != 1 {
		t.Fatalf("denied = %d; want 1", p.Denied())
	}
	// Refill: at 1000 cycles/sec, ~50 ms buys ~50 cycles.
	time.Sleep(80 * time.Millisecond)
	if !p.TryTake(20) {
		t.Fatal("pool did not refill")
	}
}

func TestPoolCapBoundsBurst(t *testing.T) {
	p := NewPool(1_000_000, 100)
	time.Sleep(20 * time.Millisecond) // would buy ~20k cycles uncapped
	if p.TryTake(101) {
		t.Fatal("refill exceeded capacity")
	}
	if !p.TryTake(100) {
		t.Fatal("capacity not available after refill")
	}
}

func TestNilPoolAlwaysGrants(t *testing.T) {
	var p *Pool
	if !p.TryTake(1 << 60) {
		t.Fatal("nil pool must grant everything")
	}
	if p.Denied() != 0 {
		t.Fatal("nil pool denied")
	}
}

func TestVerifierBudgetArmed(t *testing.T) {
	if (VerifierBudget{}).Armed() {
		t.Fatal("zero budget reports armed")
	}
	if !(VerifierBudget{PerFlow: 1}).Armed() {
		t.Fatal("per-flow budget not armed")
	}
	if !(VerifierBudget{Pool: NewPool(1, 1)}).Armed() {
		t.Fatal("pool budget not armed")
	}
	pr := DefaultPrice()
	if pr.PerRun <= 0 || pr.PerState <= 0 || pr.PerHit <= 0 {
		t.Fatalf("default price has non-positive charge: %+v", pr)
	}
	if pr.PerState <= pr.PerHit {
		t.Fatalf("state construction (%d) should dominate bookkeeping (%d)",
			pr.PerState, pr.PerHit)
	}
	if got := pr.Cost(2, 3, 4); got != 2*pr.PerRun+3*pr.PerState+4*pr.PerHit {
		t.Fatalf("Cost arithmetic wrong: %d", got)
	}
}

// TestPoolRefillsUnderFrequentCharges: charges arriving faster than one
// token's period still see the refill accrue. A pool at 1000 tokens/s
// with burst 1, charged every 50 µs for 100 ms, owes about 100 grants;
// a refill that truncates each interval to whole tokens and still
// restarts the clock grants the burst and nothing more.
func TestPoolRefillsUnderFrequentCharges(t *testing.T) {
	p := NewPool(1000, 1)
	granted := 0
	start := time.Now()
	for next := start; time.Since(start) < 100*time.Millisecond; next = next.Add(50 * time.Microsecond) {
		for time.Now().Before(next) {
		}
		if p.TryTake(1) {
			granted++
		}
	}
	if granted < 50 {
		t.Fatalf("granted %d charges in 100 ms at 1000/s; want about 100", granted)
	}
}
