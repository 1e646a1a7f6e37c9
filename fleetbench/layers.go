package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dissenter/internal/gateway"
)

// layerCounters is the fleet's cumulative per-layer counters at one
// instant, read through the layers' public accessors.
type layerCounters struct {
	gw                 gateway.Stats
	hits, misses       uint64 // replicas' response caches, summed
	primEvents         int64  // events the primary's last view applied
	durable            uint64 // primary persister's durable point
	walBytes, walSyncs int64
}

func snapLayers(f *fleet) layerCounters {
	c := layerCounters{
		gw:         f.gw.Stats(),
		primEvents: f.primLog.events.Load(),
		durable:    f.pers.Durable(),
		walBytes:   f.fs.walBytes.Load(),
		walSyncs:   f.fs.walSyncs.Load(),
	}
	for _, n := range f.reps {
		h, m := n.web.Load().CacheStats()
		c.hits += h
		c.misses += m
	}
	return c
}

// sampler polls the write-behind window and replica lag while the
// traced phase runs.
type sampler struct {
	f             *fleet
	stopc, done   chan struct{}
	unsynced, lag dist
}

const sampleEvery = 2 * time.Millisecond

func startSampler(f *fleet) *sampler {
	s := &sampler{f: f, stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(sampleEvery)
		defer tk.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tk.C:
			}
			head := f.db.EventSeq()
			s.unsynced.add(float64(head - min(head, f.pers.Durable())))
			for _, n := range f.reps {
				s.lag.add(float64(head - min(head, n.rep.Seq())))
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.stopc)
	<-s.done
	s.unsynced.seal()
	s.lag.seal()
}

type layerSnap struct {
	before, after layerCounters
	smp           *sampler
}

// layerMetrics derives every per-layer metric from the traced phase
// (runtime.* from the closed-loop phase) and returns the sealed trace.
func layerMetrics(ms *metricSet, f *fleet, lay *layerSnap, traced, closed *phase,
	p0, p1 procSample, binds int64, e e2e) []span {
	t := f.cfg.tracer
	spans := t.take()
	off := int64(traced.start.Sub(t.epoch))
	kinds := map[uint64]opKind{}
	var readLat []float64
	var reads, readBytes, writes int
	for _, r := range traced.recs {
		id, k := traced.id(r.op), traced.kind(r)
		kinds[id] = k
		spans = append(spans, span{Name: spanOp, Start: off + int64(r.sent), End: off + int64(r.done), Op: id, Attr: k.String()})
		if !r.res.ok {
			if k == opRead {
				readLat = append(readLat, math.Inf(1))
			}
			continue
		}
		if k == opRead {
			reads++
			readBytes += r.res.bytes
			readLat = append(readLat, float64(r.latency())/1e6)
			continue
		}
		writes++
		if k != opComment {
			continue
		}
		// platform.dispatch and replica.apply come from the marker
		// views: handler entry → primary's last view → replica's.
		pt, ok := f.primLog.seen(id)
		if !ok {
			continue
		}
		f.entries.mu.Lock()
		entry, ok := f.entries.at[id]
		f.entries.mu.Unlock()
		if ok {
			spans = append(spans, span{Name: spanDispatch, Start: entry, End: int64(pt), Op: id})
		}
		for _, n := range f.reps {
			if rt, ok := n.log.seen(id); ok {
				spans = append(spans, span{Name: spanApply, Start: int64(pt), End: int64(rt), Op: id, Attr: n.name})
			}
		}
	}
	spans = seal(spans)

	self := selfTimes(spans, spanGateway)
	gwSelf, webRead, webWrite, dispatch, apply, fsync := &dist{}, &dist{}, &dist{}, &dist{}, &dist{}, &dist{}
	var webReads, notModified int
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, s := range spans {
		k := kinds[s.Op]
		switch s.Name {
		case spanGateway:
			if k == opRead {
				gwSelf.add(us(self[s.ID]))
			}
		case spanWeb:
			if k == opRead {
				webReads++
				if s.Status == 304 {
					notModified++
				}
				webRead.add(us(s.dur()))
			} else {
				webWrite.add(us(s.dur()))
			}
		case spanDispatch:
			dispatch.add(us(s.dur()))
		case spanApply:
			apply.add(float64(s.dur()) / 1e6)
		case spanSync:
			fsync.add(us(s.dur()))
		}
	}
	for _, d := range []*dist{gwSelf, webRead, webWrite, dispatch, apply, fsync} {
		d.seal()
	}

	b, a := lay.before, lay.after
	ms.setQ("gateway.self_us_p50", "us", gwSelf, 0.50)
	ms.setQ("gateway.self_us_p99", "us", gwSelf, 0.99)
	var repServed uint64
	for i, be := range a.gw.Backends {
		if be.Role == gateway.RoleReplica.String() {
			repServed += be.Served - b.gw.Backends[i].Served
		}
	}
	gwReads := a.gw.Requests - b.gw.Requests
	ms.set("gateway.replica_read_pct", "%", pct(float64(repServed), float64(gwReads)),
		fmt.Sprintf("%d of %d reads", repServed, gwReads))
	ms.set("gateway.bytes_per_read", "bytes", float64(readBytes)/float64(max(reads, 1)), fmt.Sprintf("%d reads", reads))
	final := f.gw.Stats()
	ms.set("gateway.retries", "count", float64(final.Retries), "whole run")
	ms.set("gateway.retries_denied", "count", float64(final.RetriesDenied), "whole run")
	ms.set("httpguard.shed", "count", float64(f.admReached.Load()-f.admEntered.Load()), "primary admission 503s, whole run")

	ms.setQ("dissenterweb.read_us_p50", "us", webRead, 0.50)
	ms.setQ("dissenterweb.read_us_p99", "us", webRead, 0.99)
	ms.set("dissenterweb.not_modified_pct", "%", pct(float64(notModified), float64(webReads)),
		fmt.Sprintf("%d of %d backend reads", notModified, webReads))
	hits, misses := a.hits-b.hits, a.misses-b.misses
	ms.set("respcache.hit_pct", "%", pct(float64(hits), float64(hits+misses)), fmt.Sprintf("%d hits", hits))
	ms.set("respcache.misses", "count", float64(misses), "replicas, summed")

	ms.setQ("eventlog.unsynced_events_p99", "events", &lay.smp.unsynced, 0.99)
	ms.setQ("replica.lag_events_p99", "events", &lay.smp.lag, 0.99)
	var rebinds int64
	for _, n := range f.reps {
		rebinds += n.binds.Load()
	}
	ms.set("replica.rebinds", "count", float64(rebinds-binds), "OnState calls after set-up")

	// The write path exists only where the workload writes.
	if writes > 0 {
		events := a.durable - b.durable
		syncs := a.walSyncs - b.walSyncs
		ms.setQ("eventlog.fsync_us_p50", "us", fsync, 0.50)
		ms.setQ("eventlog.fsync_us_p99", "us", fsync, 0.99)
		ms.set("eventlog.events_per_fsync", "events", float64(events)/float64(max(syncs, 1)), fmt.Sprintf("%d WAL syncs", syncs))
		ms.set("eventlog.wal_bytes_per_event", "bytes", float64(a.walBytes-b.walBytes)/float64(max(events, 1)), fmt.Sprintf("%d events", events))
		ms.setQ("replica.apply_ms_p50", "ms", apply, 0.50)
		ms.setQ("replica.apply_ms_p99", "ms", apply, 0.99)
		ms.setQ("dissenterweb.write_us_p50", "us", webWrite, 0.50)
		ms.setQ("dissenterweb.write_us_p99", "us", webWrite, 0.99)
		ms.setQ("platform.write_us_p50", "us", dispatch, 0.50)
		ms.setQ("platform.write_us_p99", "us", dispatch, 0.99)
		ms.set("platform.events_per_write", "events", float64(a.primEvents-b.primEvents)/float64(writes), fmt.Sprintf("%d acked writes", writes))
	}

	n := float64(len(closed.recs))
	ms.set("runtime.allocs_per_op", "count", float64(p1.mallocs-p0.mallocs)/max(n, 1), "closed-loop phase")
	ms.set("runtime.gc_cpu_pct", "%", pct(p1.gc-p0.gc, p1.cpu-p0.cpu), "share of process CPU, closed-loop phase")
	wall := p1.wall.Sub(p0.wall).Seconds()
	ms.set("runtime.cpu_util_pct", "%", pct(p1.cpu-p0.cpu, wall*float64(runtime.NumCPU())), "process CPU ÷ (wall × nproc), closed-loop phase")
	ms.set("loadgen.ops", "count", float64(len(traced.recs)), "traced open-loop phase")
	tp50, _, _, ok1 := windowQuantile(readLat, 0.5)
	up50, _, _, ok2 := windowQuantile(e.read, 0.5)
	if ok1 && ok2 {
		ms.set("trace_overhead_pct", "%", pct(tp50-up50, up50), fmt.Sprintf("traced read p50 %.4f ms vs untraced %.4f ms", tp50, up50))
	}
	return spans
}
