package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// opHeader carries a traced op's id to the backends: the gateway
// clones request headers onto the outbound request, so the backend
// wrappers can attribute their spans.
const opHeader = "X-Fleetbench-Op"

// client executes ops against the gateway over at most `conns`
// connections, and checks every answer.
type client struct {
	hc   *http.Client
	base string

	etagMu sync.Mutex
	etags  map[string]string // request identity → last ETag seen

	bufs sync.Pool
	gzs  sync.Pool
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		// The generator decides Accept-Encoding itself and counts the
		// bytes the gateway actually sent.
		DisableCompression: true,
		IdleConnTimeout:    time.Minute,
	}
	return &client{
		hc: &http.Client{
			Transport: tr,
			// A vote answers 302; that answer is what is checked.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
			Timeout:       30 * time.Second,
		},
		base:  base,
		etags: map[string]string{},
		bufs:  sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// marker is the text of the comment op id posts: unique per op, and
// terminated so that one id is never a prefix match of another.
func marker(id uint64) string { return "fbop-" + strconv.FormatUint(id, 10) + "-end" }

// parseMarker recovers the op id from a posted comment's text.
func parseMarker(text string) (uint64, bool) {
	rest, ok := strings.CutPrefix(text, "fbop-")
	if !ok {
		return 0, false
	}
	digits, ok := strings.CutSuffix(rest, "-end")
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(digits, 10, 64)
	return id, err == nil
}

func (o *op) etagKey() string {
	return fmt.Sprintf("%s|%s|%t", o.path, o.session, o.gzip)
}

// do sends one op and checks the answer. id names the op (comment
// markers, trace attribution); traced adds the op header.
func (c *client) do(o *op, id uint64, traced bool) result {
	var req *http.Request
	var err error
	if o.kind == opComment {
		form := "url=" + url.QueryEscape(o.target) + "&text=" + marker(id)
		req, err = http.NewRequest(http.MethodPost, c.base+"/discussion/comment", strings.NewReader(form))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, c.base+o.path, nil)
	}
	if err != nil {
		return result{why: "build request: " + err.Error()}
	}
	if o.session != "" {
		req.Header.Set("Cookie", "session="+o.session)
	}
	if o.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	var key string
	revalidated := false
	if o.kind == opRead && (o.reval || o.gzip || o.session != "") {
		key = o.etagKey()
	}
	if o.reval {
		c.etagMu.Lock()
		tag := c.etags[key]
		c.etagMu.Unlock()
		if tag != "" {
			req.Header.Set("If-None-Match", tag)
			revalidated = true
		}
	}
	if traced {
		req.Header.Set(opHeader, strconv.FormatUint(id, 10))
	}

	resp, err := c.hc.Do(req)
	if err != nil {
		return result{why: "transport: " + err.Error()}
	}
	buf := c.bufs.Get().(*bytes.Buffer)
	defer c.bufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return result{why: "read body: " + err.Error()}
	}
	res := result{bytes: buf.Len(), stale: resp.Header.Get("X-Served-Stale") == "1"}
	if resp.StatusCode >= 500 {
		res.why = "status " + resp.Status
		return res
	}
	switch o.kind {
	case opComment:
		if resp.StatusCode != http.StatusOK || !bytes.Contains(buf.Bytes(), []byte(`data-comment-id="`)) {
			res.why = "comment not acked: " + resp.Status
			return res
		}
	case opVote:
		if resp.StatusCode != http.StatusFound {
			res.why = "vote not acked: " + resp.Status
			return res
		}
	default:
		switch {
		case resp.StatusCode == http.StatusNotModified && revalidated:
			if buf.Len() != 0 {
				res.why = "304 with a body"
				return res
			}
			res.notModified = true
		case resp.StatusCode == http.StatusOK:
			if why := c.checkBody(o, resp, buf.Bytes()); why != "" {
				res.why = why
				return res
			}
			if key != "" {
				if tag := resp.Header.Get("Etag"); tag != "" {
					c.etagMu.Lock()
					c.etags[key] = tag
					c.etagMu.Unlock()
				}
			}
		default:
			res.why = "read answered " + resp.Status
			return res
		}
	}
	res.ok = true
	return res
}

// headBytes is how much of a compressed body is decompressed for the
// check: every needle sits in the page head.
const headBytes = 4 << 10

// checkBody verifies a 200 read carries its needle, decompressing the
// head of a gzip answer.
func (c *client) checkBody(o *op, resp *http.Response, body []byte) string {
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if !o.gzip {
			return "gzip answer to a request that did not accept it"
		}
		zr, _ := c.gzs.Get().(*gzip.Reader)
		var err error
		if zr == nil {
			zr, err = gzip.NewReader(bytes.NewReader(body))
		} else {
			err = zr.Reset(bytes.NewReader(body))
		}
		if err != nil {
			return "bad gzip: " + err.Error()
		}
		var head [headBytes]byte
		n, err := io.ReadFull(zr, head[:])
		c.gzs.Put(zr)
		if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
			return "bad gzip: " + err.Error()
		}
		body = head[:n]
	}
	if !bytes.Contains(body, []byte(o.needle)) {
		return fmt.Sprintf("body of %s lacks %q", o.path, o.needle)
	}
	return ""
}

// get fetches path through the gateway anonymously and returns the
// identity-encoded body (used by the post-run checks).
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}
