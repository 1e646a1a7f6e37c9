package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dissenter/internal/dissenterweb"
	"dissenter/internal/eventlog"
	"dissenter/internal/faultinject"
	"dissenter/internal/gateway"
	"dissenter/internal/httpguard"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
	"dissenter/internal/synth"
)

// The fleet is the three-tier deployment, in one process on loopback,
// wired as cmd/dissenter-platform, cmd/dissenter-replica and
// cmd/dissenter-gateway wire it, with their default flag values:
//
//	client → gateway → primary (writes; reads only as a fallback)
//	                 → replica1, replica2 (reads)
//
// Only the Dissenter web routes are mounted on the primary: the Gab
// API, YouTube, Perspective and Reddit simulators are not on any
// workload's path.
const (
	replicas      = 2
	maxInflight   = 1024  // -max-inflight (primary and gateway)
	gwMaxLag      = 4096  // gateway -max-lag
	repMaxLag     = 65536 // replica -max-lag
	repStaleAfter = 30 * time.Second
)

// fleetConfig says what to build. tracer is nil for an untraced run:
// then no wrapper of any kind sits in front of the fleet's handlers
// or its filesystem.
type fleetConfig struct {
	seed   int64
	pileOn int
	dir    string // parent of the fleet's data directories
	tracer *tracer
	epoch  time.Time // time base of the marker logs
}

// server is one HTTP listener run by httpguard.Serve.
type server struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

func serve(h http.Handler, health *httpguard.Health) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- httpguard.Serve(ctx, ln, h, httpguard.ServeOptions{Health: health}) }()
	return s, nil
}

// stop drains the listener and waits for Serve to return.
func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

type replicaNode struct {
	name    string
	dir     string
	rep     *replica.Replica
	web     atomic.Pointer[dissenterweb.Server]
	binds   atomic.Int64 // OnState calls
	log     *markerLog
	srv     *server
	cancel  context.CancelFunc
	runDone chan struct{}
}

type fleet struct {
	cfg fleetConfig

	db       *platform.DB
	pers     *eventlog.Persister
	persErrs errList
	fs       *timedFS // nil when untraced
	web      *dissenterweb.Server
	primLog  *markerLog
	entries  *entryLog
	// shed accounting around the primary's admission control (traced
	// runs only): requests that reached it, and requests it let in.
	admReached, admEntered atomic.Int64
	primSrv                *server

	reps []*replicaNode

	gw       *gateway.Gateway
	gwSrv    *server
	gwCancel context.CancelFunc
	gwDone   chan struct{}

	corpus *corpus

	// Set-up timings, seconds.
	generateS, snapshotS, bootstrapS, setupS float64
}

type errList struct {
	mu   sync.Mutex
	errs []error
}

func (l *errList) add(err error) {
	l.mu.Lock()
	l.errs = append(l.errs, err)
	l.mu.Unlock()
}

func (l *errList) err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return errors.Join(l.errs...)
}

// startFleet runs the whole set-up that setup_s times: corpus
// generation → initial snapshot → (pile-on growth) → replicas caught
// up at the head and streaming → gateway probed and routing reads to
// fresh replicas.
func startFleet(cfg fleetConfig) (f *fleet, err error) {
	start := time.Now()
	f = &fleet{cfg: cfg}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()

	out := synth.Generate(synth.NewConfig(synth.DefaultScale, cfg.seed))
	f.db = out.DB
	f.generateS = time.Since(start).Seconds()

	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return f, err
	}
	opt := eventlog.Options{OnError: func(err error, sticky bool) {
		f.persErrs.add(fmt.Errorf("primary persister (sticky=%v): %w", sticky, err))
	}}
	if cfg.tracer != nil {
		f.fs = &timedFS{FS: faultinject.OS, t: cfg.tracer}
		opt.FS = f.fs
	}
	t := time.Now()
	f.pers, err = eventlog.StartPersister(f.db, filepath.Join(cfg.dir, "primary"), opt)
	if err != nil {
		return f, fmt.Errorf("start persister: %w", err)
	}
	f.snapshotS = time.Since(t).Seconds()

	root, err := f.primaryHandler()
	if err != nil {
		return f, err
	}
	f.corpus = newCorpus(f.db, cfg.seed)
	if cfg.pileOn > 0 {
		if err := f.growPileOn(root, cfg.pileOn); err != nil {
			return f, err
		}
	}
	if f.primSrv, err = serve(root, nil); err != nil {
		return f, err
	}

	t = time.Now()
	for i := 0; i < replicas; i++ {
		n, err := f.startReplica(i)
		if err != nil {
			return f, err
		}
		f.reps = append(f.reps, n)
	}
	if err := f.awaitCaughtUp(60 * time.Second); err != nil {
		return f, err
	}
	f.bootstrapS = time.Since(t).Seconds()

	if err := f.startGateway(); err != nil {
		return f, err
	}
	f.setupS = time.Since(start).Seconds()
	return f, nil
}

// primaryHandler builds the primary's serving stack as
// cmd/dissenter-platform does: health and replication mounts outside
// admission control, the web app inside it.
func (f *fleet) primaryHandler() (http.Handler, error) {
	health := httpguard.NewHealth(httpguard.Check{Name: "persister", Probe: f.pers.Err})
	f.web = dissenterweb.NewServer(f.db, dissenterweb.WithHealth(health), dissenterweb.WithURLRateLimit(0, time.Minute))
	f.web.RegisterSession(sessNSFW, dissenterweb.Session{ShowNSFW: true})
	f.web.RegisterSession(sessOff, dissenterweb.Session{ShowOffensive: true})
	active := f.db.ActiveUsers()
	if len(active) < writers {
		return nil, fmt.Errorf("corpus has %d active users, need %d writers", len(active), writers)
	}
	for i := 0; i < writers; i++ {
		f.web.RegisterSession(writerSession(i), dissenterweb.Session{Username: active[i].Username})
	}
	// Registered last: sees each event after every program view.
	f.primLog = newMarkerLog(f.cfg.epoch)
	f.db.RegisterView(markerView{name: "fleetbench-primary", log: f.primLog})

	var web http.Handler = f.web
	if t := f.cfg.tracer; t != nil {
		f.entries = &entryLog{at: map[uint64]int64{}}
		web = t.wrap(spanWeb, "primary", t.wrapEntry(f.entries, web))
	}
	mux := http.NewServeMux()
	for _, p := range []string{"/user/", "/discussion", "/discussion/begin", "/discussion/vote",
		"/discussion/comment", "/trends", "/trends/", "/leaderboard", "/leaderboard/", "/comment/"} {
		mux.Handle(p, web)
	}
	var admitted http.Handler = mux
	if f.cfg.tracer != nil {
		admitted = counting(&f.admEntered, mux)
	}
	admission := httpguard.Admission(maxInflight, time.Second, admitted)
	if f.cfg.tracer != nil {
		admission = counting(&f.admReached, admission)
	}

	root := http.NewServeMux()
	root.HandleFunc("/healthz", health.Healthz)
	root.HandleFunc("/readyz", health.Readyz)
	root.Handle("/replication/", &replica.Publisher{DB: f.db})
	root.HandleFunc("/replication-status", func(w http.ResponseWriter, r *http.Request) {
		replica.ServeStatus(w, replica.PrimaryStatus(f.db, f.pers.Durable(), f.pers.Err()))
	})
	root.Handle("/", admission)
	return root, nil
}

func counting(n *atomic.Int64, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		h.ServeHTTP(w, r)
	})
}

// growPileOn posts comments onto the corpus's most-commented URL
// through the primary's own write path (admission, web handler, store,
// views, WAL) until it carries `target` comments — the viral page of
// Figs. 4-5. It runs before the replicas bootstrap, so they start
// from a snapshot that already holds the pile-on.
func (f *fleet) growPileOn(root http.Handler, target int) error {
	cu := f.corpus.pileOn
	for i := len(f.db.CommentsOnURL(cu.ID)); i < target; i++ {
		form := url.Values{"url": {cu.URL}, "text": {fmt.Sprintf("pile-on comment %d", i)}}
		req := httptest.NewRequest(http.MethodPost, "/discussion/comment", strings.NewReader(form.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		req.Header.Set("Cookie", "session="+writerSession(i%writers))
		rec := httptest.NewRecorder()
		root.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("pile-on comment %d: status %d", i, rec.Code)
		}
	}
	return nil
}

// startReplica opens a replica as cmd/dissenter-replica does: a
// read-only web server rebuilt on every (re)bind, with the event
// invalidator — and then the benchmark's marker view, last — on the
// bound store.
func (f *fleet) startReplica(i int) (*replicaNode, error) {
	n := &replicaNode{
		name:    fmt.Sprintf("replica%d", i+1),
		dir:     filepath.Join(f.cfg.dir, fmt.Sprintf("replica%d", i+1)),
		log:     newMarkerLog(f.cfg.epoch),
		runDone: make(chan struct{}),
	}
	bind := func(db *platform.DB) {
		web := dissenterweb.NewServer(db, dissenterweb.ReadOnly(), dissenterweb.WithURLRateLimit(0, time.Minute))
		web.RegisterSession(sessNSFW, dissenterweb.Session{ShowNSFW: true})
		web.RegisterSession(sessOff, dissenterweb.Session{ShowOffensive: true})
		db.RegisterView(web.EventInvalidator())
		db.RegisterView(markerView{name: "fleetbench-" + n.name, log: n.log})
		n.web.Store(web)
		n.binds.Add(1)
	}
	rep, err := replica.Open(n.dir, f.primSrv.url+"/replication", replica.Options{OnState: bind})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", n.name, err)
	}
	n.rep = rep
	ready := func() error { return rep.Ready(repStaleAfter, repMaxLag) }
	health := httpguard.NewHealth(httpguard.Check{Name: "replication", Probe: ready})

	var web http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.web.Load().ServeHTTP(w, r)
	})
	if t := f.cfg.tracer; t != nil {
		web = t.wrap(spanWeb, n.name, web)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)
	mux.HandleFunc("/replication-status", func(w http.ResponseWriter, r *http.Request) {
		replica.ServeStatus(w, rep.StatusJSON())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if ready() != nil {
			w.Header().Set("X-Served-Stale", "1")
		}
		web.ServeHTTP(w, r)
	})
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	go func() {
		defer close(n.runDone)
		rep.Run(ctx)
	}()
	if n.srv, err = serve(mux, health); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

func (n *replicaNode) stop() error {
	n.cancel()
	<-n.runDone
	var err error
	if n.srv != nil {
		err = n.srv.stop()
	}
	return errors.Join(err, n.rep.Close())
}

// awaitCaughtUp waits until every replica has applied the primary's
// head and holds a live stream.
func (f *fleet) awaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	head := f.db.EventSeq()
	for _, n := range f.reps {
		for n.rep.Seq() < head || !n.rep.Status().Connected {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not caught up after %v: seq %d, head %d", n.name, timeout, n.rep.Seq(), head)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// startGateway builds the gateway as cmd/dissenter-gateway does, runs
// one synchronous probe round, and requires that the round routes
// reads to fresh replicas before any traffic starts.
func (f *fleet) startGateway() error {
	var urls []string
	for _, n := range f.reps {
		urls = append(urls, n.srv.url)
	}
	f.gw = gateway.New(f.primSrv.url, urls, gateway.Options{
		MaxLag:           gwMaxLag,
		ProbeInterval:    time.Second,
		ProbeTimeout:     2 * time.Second,
		EjectAfter:       3,
		RetryAttempts:    3,
		RetryBudgetRatio: retryRatio,
		RetryBudgetBurst: retryBurst,
	})
	ctx, cancel := context.WithCancel(context.Background())
	f.gwCancel = cancel
	f.gw.ProbeNow(ctx)
	for _, b := range f.gw.Stats().Backends {
		if b.Role == gateway.RoleReplica.String() && (!b.Probed || !b.Ready || b.Ejected || b.Lag > gwMaxLag) {
			return fmt.Errorf("gateway would not route reads to %s: %+v", b.Name, b)
		}
	}
	f.gwDone = make(chan struct{})
	go func() {
		defer close(f.gwDone)
		f.gw.Run(ctx)
	}()

	health := httpguard.NewHealth(httpguard.Check{Name: "backends", Probe: f.gw.ReadyCheck})
	var routed http.Handler = httpguard.Admission(maxInflight, time.Second, f.gw)
	if t := f.cfg.tracer; t != nil {
		routed = t.wrap(spanGateway, "", routed)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", health.Healthz)
	mux.HandleFunc("/readyz", health.Readyz)
	mux.HandleFunc("/gateway/status", f.gw.ServeStatus)
	mux.Handle("/", routed)
	var err error
	f.gwSrv, err = serve(mux, health)
	return err
}

// Gateway retry budget, as cmd/dissenter-gateway's defaults.
const (
	retryRatio = 0.1
	retryBurst = 10
)

// quiesce waits until the primary's WAL is durable at the head and
// every replica has applied it.
func (f *fleet) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		head := f.db.EventSeq()
		done := f.pers.Durable() == head
		for _, n := range f.reps {
			done = done && n.rep.Seq() == head
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not quiescent after %v (head %d, durable %d)", timeout, head, f.pers.Durable())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stopServing takes the gateway, the replicas and the primary's
// listener down, in that order, so no stream outlives its publisher.
// The primary's persister stays open.
func (f *fleet) stopServing() error {
	var errs []error
	if f.gwSrv != nil {
		errs = append(errs, f.gwSrv.stop())
		f.gwSrv = nil
	}
	if f.gwCancel != nil {
		f.gwCancel()
		if f.gwDone != nil {
			<-f.gwDone
		}
		f.gwCancel = nil
	}
	for _, n := range f.reps {
		errs = append(errs, n.stop())
	}
	f.reps = nil
	if f.primSrv != nil {
		errs = append(errs, f.primSrv.stop())
		f.primSrv = nil
	}
	return errors.Join(errs...)
}

// stop tears the whole fleet down and removes its data.
func (f *fleet) stop() error {
	err := f.stopServing()
	if f.pers != nil {
		err = errors.Join(err, f.pers.Close())
		f.pers = nil
	}
	return errors.Join(err, os.RemoveAll(f.cfg.dir))
}
