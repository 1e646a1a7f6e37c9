package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// result is what one operation's execution reports back to the
// generator: whether every check on it passed, and what it carried.
type result struct {
	ok          bool
	why         string // failure reason, empty when ok
	bytes       int    // response body bytes on the wire
	stale       bool   // answered with X-Served-Stale: 1
	notModified bool   // answered 304
}

// record is one sent operation. Times are offsets from the phase
// start. In an open loop due is the schedule slot; in a closed loop
// there is no schedule and due equals sent.
type record struct {
	op              int // index into the phase's op sequence
	due, sent, done time.Duration
	res             result
}

// latency is timed from the due time, not the send time: an operation
// the generator could not send on schedule (because a worker was
// stuck behind a slow response, or the generator itself stalled) is
// charged the wait, which is what a user arriving on schedule sees.
// Timing from the send would drop exactly the slow intervals
// (coordinated omission).
func (r record) latency() time.Duration { return r.done - r.due }

// late is how far behind schedule the generator sent the operation.
func (r record) late() time.Duration { return r.sent - r.due }

// runOpen sends n operations on a fixed schedule — operation i is due
// at start + i·interval regardless of how earlier ones fared — from
// `workers` goroutines; times are offsets from start. A worker that finds its next slot already
// past sends immediately, so a backlog drains as fast as the system
// allows and every late send shows in record.late.
func runOpen(start time.Time, n int, interval time.Duration, workers int, exec func(i int) result) []record {
	recs := make([]record, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				res := exec(i)
				recs[i] = record{op: i, due: due, sent: sent, done: time.Since(start), res: res}
			}
		}()
	}
	wg.Wait()
	return recs
}

// runClosed keeps `workers` operations in flight for d: each worker
// sends its next operation as soon as the previous one completes. It
// returns the records and the wall time the phase actually took (the
// last operations finish after d).
func runClosed(start time.Time, d time.Duration, workers int, exec func(i int) result) ([]record, time.Duration) {
	var next atomic.Int64
	per := make([][]record, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				sent := time.Since(start)
				res := exec(i)
				per[w] = append(per[w], record{op: i, due: sent, sent: sent, done: time.Since(start), res: res})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var recs []record
	for _, rs := range per {
		recs = append(recs, rs...)
	}
	return recs, elapsed
}
