package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dissenter/internal/faultinject"
	"dissenter/internal/platform"
)

// Span names, one per layer boundary the traced run records. Every
// span is recorded from the benchmark's side of a public entry point:
// wrapped handlers, benchmark-owned views, a wrapped filesystem.
const (
	spanOp       = "loadgen.op"         // root: one generated op, send to answer
	spanGateway  = "gateway.serve"      // the gateway's handler
	spanWeb      = "dissenterweb.serve" // a backend's web handler (attr backend)
	spanDispatch = "platform.dispatch"  // primary handler entry → primary's last view sees the event
	spanApply    = "replica.apply"      // primary's last view → a replica's last view (attr replica)
	spanSync     = "eventlog.sync"      // one File.Sync in the primary's persistence dir (no parent)
)

// parentOf is the span tree: each name's parent, matched on op id.
var parentOf = map[string]string{
	spanGateway:  spanOp,
	spanWeb:      spanGateway,
	spanDispatch: spanWeb,
	spanApply:    spanOp,
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; ID and Parent are assigned when the trace is sealed.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     uint64 `json:"op"`
	Attr   string `json:"attr,omitempty"`
	Method string `json:"method,omitempty"`
	Status int    `json:"status,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; nothing is written until the
// run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and clears the store.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// wrap records a span named name around h for requests that carry an
// op id while tracing is on; other requests pass straight through.
func (t *tracer) wrap(name, attr string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		t.add(span{Name: name, Start: start, End: t.now(), Op: id, Attr: attr, Method: r.Method, Status: sw.status})
	})
}

// entryLog remembers when the primary's web handler was entered for
// each traced comment op, so platform.dispatch can be closed when the
// primary's last view sees the comment.
type entryLog struct {
	mu sync.Mutex
	at map[uint64]int64
}

func (t *tracer) wrapEntry(log *entryLog, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t.on.Load() && r.Method == http.MethodPost {
			if id, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64); err == nil {
				now := t.now()
				log.mu.Lock()
				log.at[id] = now
				log.mu.Unlock()
			}
		}
		h.ServeHTTP(w, r)
	})
}

// markerLog records, per comment op id, when a view saw the comment.
type markerLog struct {
	epoch  time.Time
	events atomic.Int64 // every event the view applied

	mu sync.Mutex
	at map[uint64]time.Duration
}

func newMarkerLog(epoch time.Time) *markerLog {
	return &markerLog{epoch: epoch, at: map[uint64]time.Duration{}}
}

func (l *markerLog) seen(id uint64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.at[id]
	return t, ok
}

// markerView is the benchmark's own platform.View, registered LAST on
// a store so that its Apply runs after every view the program
// registered there. On a replica that includes the web server's
// EventInvalidator, so when markerView sees a comment, the replica's
// response cache has already been patched or invalidated for it and a
// read through that replica returns it. That is the visibility point.
//
// platform.DB.AwaitEvents is NOT a visibility signal: dispatch wakes
// its waiters before it fans the event out to the views, invalidator
// included, so a waiter can return while the replica still serves
// the pre-write page from its cache. For the same reason the
// repository's BenchmarkReplicationLag (which waits with AwaitEvents)
// understates write-to-visible latency.
type markerView struct {
	name string
	log  *markerLog
}

func (v markerView) Name() string { return v.name }

func (v markerView) Apply(db *platform.DB, ev platform.Event) {
	v.log.events.Add(1)
	c, ok := ev.(platform.CommentAdded)
	if !ok {
		return
	}
	id, ok := parseMarker(c.Comment.Text)
	if !ok {
		return
	}
	at := time.Since(v.log.epoch)
	v.log.mu.Lock()
	v.log.at[id] = at
	v.log.mu.Unlock()
}

func (markerView) Rebuild(*platform.DB) {}

// timedFS wraps the primary's persistence filesystem: it times every
// File.Sync (as eventlog.sync spans while tracing) and counts WAL
// bytes and WAL syncs.
type timedFS struct {
	faultinject.FS
	t        *tracer
	walBytes atomic.Int64
	walSyncs atomic.Int64
}

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (faultinject.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	kind := "dir"
	switch base := filepath.Base(name); {
	case strings.HasPrefix(base, "wal-"):
		kind = "wal"
	case strings.HasPrefix(base, "snap-"):
		kind = "snap"
	}
	return &timedFile{File: file, fs: f, kind: kind}, nil
}

type timedFile struct {
	faultinject.File
	fs   *timedFS
	kind string
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.kind == "wal" {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.fs.t.now()
	err := f.File.Sync()
	if f.kind == "wal" {
		f.fs.walSyncs.Add(1)
	}
	if f.fs.t.on.Load() {
		f.fs.t.add(span{Name: spanSync, Start: start, End: f.fs.t.now(), Attr: f.kind})
	}
	return err
}

// seal assigns ids and parents: a span's parent is the span of the
// parent layer with the same op id (the first one, if a retried read
// produced several).
func seal(spans []span) []span {
	first := map[string]int{}
	key := func(name string, op uint64) string { return name + "#" + strconv.FormatUint(op, 10) }
	for i := range spans {
		spans[i].ID = i
		if k := key(spans[i].Name, spans[i].Op); spans[i].Op != 0 {
			if _, ok := first[k]; !ok {
				first[k] = i
			}
		}
	}
	for i := range spans {
		spans[i].Parent = -1
		if p, ok := parentOf[spans[i].Name]; ok {
			if j, ok := first[key(p, spans[i].Op)]; ok {
				spans[i].Parent = j
			}
		}
	}
	return spans
}

// selfTimes returns, for every sealed span named name (by id), its
// duration minus the part of its interval its children cover.
func selfTimes(spans []span, name string) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			out[s.ID] = s.dur() - covered(s, children[s.ID])
		}
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Few children per span (one, or a handful after retries): an
	// insertion sort keeps this allocation-light.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// writeSpans writes the sealed trace as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
