package main

import (
	"math"
	"testing"
	"time"
)

// A stalled generator must not hide the stall: ops due while it was
// stuck are sent late, and their latency counts from the due time —
// so the stall shows in the latencies and in the lateness.
func TestStallCountsFromDueTime(t *testing.T) {
	const (
		n        = 1000
		interval = time.Millisecond
		stallAt  = 100
		stall    = 50 * time.Millisecond
	)
	recs := runOpen(time.Now(), n, interval, 1, func(i int) result {
		if i == stallAt {
			time.Sleep(stall) // the only worker is stuck here
		}
		return result{ok: true}
	})
	next := recs[stallAt+1]
	if got := next.latency(); got < stall-2*interval {
		t.Errorf("op after the stall: latency from due %v, want ≥ %v", got, stall-2*interval)
	}
	if svc := next.done - next.sent; svc > 10*time.Millisecond {
		t.Errorf("op after the stall: service time %v; the stall must show as lateness, not service", svc)
	}
	late := &dist{}
	for _, r := range recs {
		late.add(float64(r.late()) / 1e6)
	}
	p99, _, ok := late.seal().quantile(0.99)
	// About 50 ops are due during the stall, late by 49ms down to 1ms;
	// the 11th-latest is still about 40ms late.
	if !ok || p99 < 30 {
		t.Errorf("late p99 = %v ms (ok=%v), want ≥ 30 ms", p99, ok)
	}
}

// A failed op counts as +Inf in every percentile of its kind and in
// error_pct.
func TestFailureCountsAsInf(t *testing.T) {
	p := &phase{ops: []op{{kind: opRead}}}
	for i := 0; i < 1000; i++ {
		r := record{op: i, due: 0, sent: 0, done: time.Millisecond, res: result{ok: true}}
		if i%100 == 0 { // 10 failures
			r.res = result{why: "status 503"}
		}
		if i == 7 { // one more: 11 failures, so the 990th sample is one
			r.res = result{why: "transport: refused"}
		}
		p.recs = append(p.recs, r)
	}
	e := endToEndMetrics(&fleet{}, p, &phase{ops: p.ops}, time.Now())
	if e.failed != 11 || e.attempted != 1000 {
		t.Fatalf("failed/attempted = %d/%d, want 11/1000", e.failed, e.attempted)
	}
	if got := pct(float64(e.failed), float64(e.attempted)); got != 1.1 {
		t.Errorf("error_pct = %v, want 1.1", got)
	}
	p50, _, _, _ := windowQuantile(e.read, 0.5)
	p99, k, beyond, ok := windowQuantile(e.read, 0.99)
	if p50 != 1 {
		t.Errorf("p50 = %v ms, want 1", p50)
	}
	if !ok || !math.IsInf(p99, 1) || beyond != 10 || k != 1 {
		t.Errorf("p99 = %v (windows %d, beyond %d, ok %v), want +Inf with 10 beyond in 1 window", p99, k, beyond, ok)
	}
}

// A tail percentile needs at least minBeyond samples beyond it.
func TestTailWithheld(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, // 9 beyond
		{1000, 0.99, true}, // 10 beyond
		{19, 0.50, false},
		{20, 0.50, true},
		{0, 0.50, false},
	} {
		d := &dist{}
		for i := 0; i < tc.n; i++ {
			d.add(float64(i))
		}
		_, beyond, ok := d.seal().quantile(tc.q)
		if ok != tc.want {
			t.Errorf("n=%d q=%v: reported=%v (beyond %d), want %v", tc.n, tc.q, ok, beyond, tc.want)
		}
	}
}

// Self time subtracts the union of the children's intervals, clipped
// to the parent.
func TestSelfTime(t *testing.T) {
	spans := seal([]span{
		{Name: spanOp, Start: 0, End: 100, Op: 1},
		{Name: spanGateway, Start: 10, End: 90, Op: 1},
		{Name: spanWeb, Start: 20, End: 40, Op: 1}, // a failed attempt
		{Name: spanWeb, Start: 30, End: 60, Op: 1}, // overlapping retry
		{Name: spanWeb, Start: 85, End: 95, Op: 1}, // runs past the parent
	})
	self := selfTimes(spans, spanGateway)
	if got := self[1]; got != 80-(40+5) {
		t.Errorf("gateway self = %v, want 35", int64(got))
	}
}

func TestMarkerRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 42, 3<<32 + 17} {
		if got, ok := parseMarker(marker(id)); !ok || got != id {
			t.Errorf("parseMarker(marker(%d)) = %d, %v", id, got, ok)
		}
	}
	for _, text := range []string{"pile-on comment 3", "fbop-12", "fbop--end", "fbop-x-end"} {
		if _, ok := parseMarker(text); ok {
			t.Errorf("parseMarker(%q) matched", text)
		}
	}
}
