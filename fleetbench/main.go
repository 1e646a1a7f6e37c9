// Command fleetbench is the repository's end-to-end benchmark. It
// starts the real three-tier fleet — gateway → primary + 2 replicas —
// in one process on loopback, drives one of three seeded, paper-shaped
// workloads through the gateway, checks every answer and the fleet's
// invariants, and prints every metric by name and unit.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash fleetbench/run.sh --workload viral-read --seed 1 --seconds 20 --trace 0
//
// One run: set-up (three times; setup_s is their median and the last
// fleet is kept), an untimed closed-loop warm-up, then
//
//   - an open-loop phase at the workload's fixed offered rate, which
//     gives the latencies (timed from each op's due time), and
//   - a closed-loop phase with nproc connections, which gives the
//     throughput.
//
// With --trace 1 a traced open-loop phase follows the untraced one:
// wrappers around each layer's public entry points record spans, and
// the per-layer metrics come from that phase. The last line of
// standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics of BENCHMARK.json
// when untraced and its per-layer metrics when traced. Every other
// metric, sample counts and the run's metadata are printed above it.
// The exit code is 0 only when every correctness check passed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"

	"dissenter/internal/synth"
)

const (
	setupRuns = 3               // set-ups per run; setup_s is their median
	warmup    = 6 * time.Second // untimed: caches fill, the first seconds run slow
	openShare = 0.6             // share of --seconds in the open-loop phases
	// respcacheTTL is dissenterweb.DefaultCacheTTL. The warm-up fills
	// the hot set within its first second, so the whole hot set expires
	// together one TTL later, and the re-render wave that follows moves
	// latency and halves viral-read throughput for several seconds.
	// The measured phases end before it (see README.md).
	respcacheTTL = 30 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	commit   string
	out      string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: viral-read, crawl-scan or comment-storm")
	seed := fs.Int64("seed", 1, "seed of the corpus and of the op sequences")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	commit := fs.String("commit", "unknown", "source revision, recorded in the metadata")
	out := fs.String("out", ".bench_build/fleetbench-out", "directory for data directories and traces")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return options{}, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return options{}, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if warmup+time.Duration(*seconds)*time.Second >= respcacheTTL {
		return options{}, fmt.Errorf("--seconds must be below %v so the measured phases end before the warm-up's cache entries expire",
			respcacheTTL-warmup)
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, commit: *commit, out: *out}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 2
	}
	rep, err := bench(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value *float64 `json:"value"` // null when not finite or withheld
	Unit  string   `json:"unit"`
}

// metricSet collects the named metrics of a run, prints each as it is
// set, and knows which ones go into the result line.
type metricSet struct {
	out      io.Writer
	vals     map[string]metricValue
	problems []string
}

func (m *metricSet) set(name, unit string, v float64, note string) {
	mv := metricValue{Unit: unit}
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		mv.Value = &v
	}
	m.vals[name] = mv
	fmt.Fprintf(m.out, "metric %-32s %14.4f %-6s %s\n", name, v, unit, note)
}

// setQ sets a percentile of d, with its sample count; a withheld
// percentile is printed as such and left out of the set.
func (m *metricSet) setQ(name, unit string, d *dist, q float64) {
	v, beyond, ok := d.quantile(q)
	if !ok {
		fmt.Fprintf(m.out, "metric %-32s %14s %-6s n=%d beyond=%d (fewer than %d beyond: withheld)\n",
			name, "-", unit, d.n(), beyond, minBeyond)
		return
	}
	m.set(name, unit, v, fmt.Sprintf("n=%d beyond=%d failed=%d", d.n(), beyond, d.failed))
}

// setW sets the windowed q-quantile of xs (windowQuantile), printing
// the pooled quantile over all samples beside it.
func (m *metricSet) setW(name, unit string, xs []float64, q float64) {
	v, k, beyond, ok := windowQuantile(xs, q)
	d := distOf(xs)
	pooled := "withheld"
	pv, pb, pok := d.quantile(q)
	if pok {
		pooled = fmt.Sprintf("%.4f", pv)
	}
	if !ok {
		fmt.Fprintf(m.out, "metric %-32s %14s %-6s n=%d in %d windows, %d beyond (fewer than %d beyond: withheld)\n",
			name, "-", unit, len(xs), k, beyond, minBeyond)
		return
	}
	m.set(name, unit, v, fmt.Sprintf("median of %d windows, n=%d, >=%d beyond each, failed=%d; pooled %s (%d beyond)",
		k, len(xs), beyond, d.failed, pooled, pb))
}

// pick returns the named metrics for the result line; a missing or
// non-finite one is a problem that fails the run.
func (m *metricSet) pick(names []string) map[string]metricValue {
	out := map[string]metricValue{}
	for _, n := range names {
		v, ok := m.vals[n]
		if !ok || v.Value == nil {
			m.problems = append(m.problems, "metric "+n+" has no finite value")
		}
		out[n] = v
	}
	return out
}

// The result line's metric names, as listed in BENCHMARK.json.
var (
	endToEnd = []string{"setup_s", "read_p99_ms", "throughput_rps", "heap_mb"}
	perLayer = []string{
		"synth.generate_s", "eventlog.snapshot_s", "replica.bootstrap_s",
		"gateway.self_us_p50", "gateway.self_us_p99", "gateway.replica_read_pct",
		"gateway.bytes_per_read", "gateway.retries", "gateway.retries_denied",
		"httpguard.shed",
		"dissenterweb.read_us_p50", "dissenterweb.read_us_p99", "dissenterweb.not_modified_pct",
		"respcache.hit_pct", "respcache.misses",
		"eventlog.unsynced_events_p99", "replica.lag_events_p99", "replica.rebinds",
		"runtime.allocs_per_op", "runtime.gc_cpu_pct", "runtime.cpu_util_pct",
		"loadgen.late_p99_ms", "loadgen.ops", "trace_overhead_pct",
	}
)

// meta is the run's provenance, printed with every result.
type meta struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Scale      float64            `json:"corpus_scale"`
	OfferedRPS map[string]float64 `json:"offered_rps"`
	Conns      int                `json:"client_connections"`
	Network    string             `json:"network"`
}

// phase is one stretch of generated traffic.
type phase struct {
	ops     []op
	base    uint64    // op ids are base+i+1
	start   time.Time // record times are offsets from here
	recs    []record
	elapsed time.Duration
	traced  bool
}

func (p *phase) id(i int) uint64 { return p.base + uint64(i) + 1 }

func (p *phase) exec(cl *client) func(i int) result {
	return func(i int) result { return cl.do(&p.ops[i%len(p.ops)], p.id(i), p.traced) }
}

func (p *phase) kind(r record) opKind { return p.ops[r.op%len(p.ops)].kind }

func bench(opt options, stdout io.Writer) (*report, error) {
	w := opt.workload
	nproc := runtime.NumCPU()
	md := meta{
		Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: opt.commit, Scale: synth.DefaultScale, OfferedRPS: map[string]float64{},
		Conns: nproc, Network: "loopback, one process",
	}
	for _, x := range workloads {
		md.OfferedRPS[x.name] = x.rate
	}
	mj, _ := json.Marshal(md)
	fmt.Fprintf(stdout, "meta %s\n", mj)

	epoch := time.Now()
	var tr *tracer
	if opt.trace {
		tr = &tracer{epoch: epoch}
	}
	runDir := filepath.Join(opt.out, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	// Set-up, several times; the last fleet is kept.
	var f *fleet
	var setups, gens, snaps, boots []float64
	for k := 0; k < setupRuns; k++ {
		var err error
		f, err = startFleet(fleetConfig{
			seed: opt.seed, pileOn: w.pileOn, tracer: tr, epoch: epoch,
			dir: filepath.Join(runDir, fmt.Sprintf("setup%d", k)),
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups, gens = append(setups, f.setupS), append(gens, f.generateS)
		snaps, boots = append(snaps, f.snapshotS), append(boots, f.bootstrapS)
		if k < setupRuns-1 {
			if err := f.stop(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", k, err)
			}
			f = nil
			runtime.GC()
		}
	}
	defer f.stop()
	fmt.Fprintf(stdout, "setup %d runs: %v s\n", setupRuns, setups)

	cl := newClient(f.gwSrv.url, nproc)
	defer cl.close()
	var binds int64
	for _, n := range f.reps {
		binds += n.binds.Load()
	}

	// The measured seconds split 60/40 between the open and the closed
	// loop; a traced run gives half the open loop's share to the traced
	// phase, so both kinds of run take the same time.
	total := time.Duration(opt.seconds) * time.Second
	openDur := time.Duration(float64(total) * openShare)
	closedDur := total - openDur
	if opt.trace {
		openDur /= 2
	}
	nOpen := int(w.rate * openDur.Seconds())
	interval := time.Duration(float64(time.Second) / w.rate)
	// Op ids are unique in the run: phase seq in the high bits, so a
	// closed loop cycling its op ring never collides with a later phase.
	newPhase := func(seq uint64, n int, traced bool) *phase {
		return &phase{ops: genOps(w, f.corpus, seq, n), base: seq << 32, traced: traced}
	}

	// CPU stolen from this machine by its host during the measured
	// phases: a noisy run shows here, not only in its numbers.
	steal0, total0 := hostCPU()

	// Warm-up: untimed, but checked like everything else.
	warm := newPhase(1, int(8*w.rate*warmup.Seconds())+1, false)
	warm.start = time.Now()
	warm.recs, warm.elapsed = runClosed(warm.start, warmup, nproc, warm.exec(cl))

	open := newPhase(2, nOpen, false)
	open.start = time.Now()
	open.recs = runOpen(open.start, nOpen, interval, nproc, open.exec(cl))

	var traced *phase
	var lay *layerSnap
	if opt.trace {
		traced = newPhase(3, nOpen, true)
		before := snapLayers(f)
		smp := startSampler(f)
		tr.on.Store(true)
		traced.start = time.Now()
		traced.recs = runOpen(traced.start, nOpen, interval, nproc, traced.exec(cl))
		tr.on.Store(false)
		smp.stop()
		lay = &layerSnap{before: before, after: snapLayers(f), smp: smp}
	}

	closed := newPhase(4, int(8*w.rate*closedDur.Seconds())+1, false)
	p0 := sampleProc()
	closed.start = time.Now()
	closed.recs, closed.elapsed = runClosed(closed.start, closedDur, nproc, closed.exec(cl))
	p1 := sampleProc()
	steal1, total1 := hostCPU()

	ms := &metricSet{out: stdout, vals: map[string]metricValue{}}
	ms.set("host.steal_pct", "%", pct(steal1-steal0, total1-total0), "CPU the host took from this machine, warm-up to end")
	var problems []string
	if err := f.quiesce(30 * time.Second); err != nil {
		problems = append(problems, err.Error())
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	// End-to-end metrics, tracing off.
	e := endToEndMetrics(f, open, closed, epoch)
	ms.set("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	ms.setW("read_p50_ms", "ms", e.read, 0.50)
	ms.setW("read_p99_ms", "ms", e.read, 0.99)
	if len(e.write) > 0 {
		ms.setW("write_p50_ms", "ms", e.write, 0.50)
		ms.setW("write_p99_ms", "ms", e.write, 0.99)
		ms.setW("visible_p50_ms", "ms", e.visible, 0.50)
		ms.setW("visible_p99_ms", "ms", e.visible, 0.99)
	}
	ms.set("throughput_rps", "ops/s", median(e.closedRates),
		fmt.Sprintf("median of %d one-second windows %v, %d connections; pooled %.1f (%d ops in %.3fs)",
			len(e.closedRates), e.closedRates, nproc, float64(e.closedOK)/closed.elapsed.Seconds(), e.closedOK, closed.elapsed.Seconds()))
	ms.set("error_pct", "%", pct(float64(e.failed), float64(e.attempted)), fmt.Sprintf("%d of %d", e.failed, e.attempted))
	ms.set("stale_pct", "%", pct(float64(e.stale), float64(e.reads)), fmt.Sprintf("%d of %d reads", e.stale, e.reads))
	ms.set("heap_mb", "MiB", float64(mem.HeapInuse)/(1<<20), "HeapInuse after a forced GC")
	ms.setW("loadgen.late_p99_ms", "ms", e.late, 0.99)

	if opt.trace {
		ms.set("synth.generate_s", "s", median(gens), "")
		ms.set("eventlog.snapshot_s", "s", median(snaps), "StartPersister, initial snapshot")
		ms.set("replica.bootstrap_s", "s", median(boots), "replicas open → caught up and streaming")
		spans := layerMetrics(ms, f, lay, traced, closed, p0, p1, binds, e)
		if err := writeSpans(filepath.Join(opt.out, w.name+".trace.jsonl"), spans); err != nil {
			problems = append(problems, err.Error())
		}
	}

	// Correctness: every op's own check, then the fleet's invariants.
	problems = append(problems, opFailures(warm, open, traced, closed)...)
	problems = append(problems, checkFleet(f, cl, []*phase{warm, open, traced, closed})...)

	rep := &report{}
	for _, p := range []*phase{open, traced, closed} {
		if p == nil {
			continue
		}
		for _, r := range p.recs {
			rep.Attempted++
			if !r.res.ok {
				rep.Failed++
			}
		}
	}
	if opt.trace {
		rep.Metrics = ms.pick(perLayer)
	} else {
		rep.Metrics = ms.pick(endToEnd)
	}
	problems = append(problems, ms.problems...)
	for _, s := range problems {
		fmt.Fprintln(stdout, "FAIL", s)
	}
	rep.Correct = len(problems) == 0
	if rep.Correct {
		fmt.Fprintln(stdout, "checks passed")
	}
	return rep, nil
}

// e2e holds the end-to-end samples and counts. Sample series are in
// send order with failures as +Inf, ready for windowQuantile.
type e2e struct {
	read, write, visible, late []float64 // ms
	attempted, failed          int
	reads, stale               int
	closedOK                   int
	closedRates                []float64 // ok ops/s per whole second of the closed loop
}

// endToEndMetrics reads the untraced open-loop phase (latencies) and
// the closed-loop phase (throughput); both count toward attempted,
// failed and stale.
func endToEndMetrics(f *fleet, open, closed *phase, epoch time.Time) e2e {
	var e e2e
	inf := math.Inf(1)
	orInf := func(v float64, ok bool) float64 {
		if ok {
			return v
		}
		return inf
	}
	openOff := open.start.Sub(epoch)
	for _, r := range open.recs {
		ms := float64(r.latency()) / 1e6
		e.late = append(e.late, float64(r.late())/1e6)
		switch open.kind(r) {
		case opRead:
			e.read = append(e.read, orInf(ms, r.res.ok))
		case opVote:
			e.write = append(e.write, orInf(ms, r.res.ok))
		case opComment:
			e.write = append(e.write, orInf(ms, r.res.ok))
			// Visible once the LAST replica's last view applied it.
			id := open.id(r.op)
			var last time.Duration
			seen := r.res.ok
			for _, n := range f.reps {
				t, ok := n.log.seen(id)
				seen = seen && ok
				last = max(last, t)
			}
			e.visible = append(e.visible, orInf(float64(last-(openOff+r.due))/1e6, seen))
		}
	}
	counts := make([]int, int(closed.elapsed/time.Second))
	for _, p := range []*phase{open, closed} {
		for _, r := range p.recs {
			e.attempted++
			if !r.res.ok {
				e.failed++
			} else if p == closed {
				e.closedOK++
				if s := int(r.done / time.Second); s < len(counts) {
					counts[s]++
				}
			}
			if p.kind(r) == opRead {
				e.reads++
				if r.res.stale {
					e.stale++
				}
			}
		}
	}
	for _, c := range counts {
		e.closedRates = append(e.closedRates, float64(c))
	}
	return e
}

// hostCPU reads the machine's cumulative CPU time split from the
// first line of /proc/stat (Linux): steal, and the total. Elsewhere it
// reports zeros.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := bytes.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(string(f), 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// procSample is the process's cumulative cost at one instant.
type procSample struct {
	wall    time.Time
	mallocs uint64
	cpu     float64 // user+system seconds (getrusage)
	gc      float64 // GC CPU seconds (runtime/metrics)
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return procSample{wall: time.Now(), mallocs: m.Mallocs, cpu: cpu, gc: s[0].Value.Float64()}
}
