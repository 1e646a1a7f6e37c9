package main

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"net/url"
	"slices"
	"sort"

	"dissenter/internal/platform"
)

// The three workloads are the paper's three traffic shapes. Each is a
// seeded op sequence drawn from the same generator (genOps); they
// differ only in the mix and in which corpus records they target.
//
//   - viral-read: readers piling onto a few viral discussion pages
//     (Figs. 4-5). The working set fits the replicas' response caches,
//     so the composed-hit path, 304 revalidation, gzip variants and the
//     gateway hop do the work; nothing reaches the store, the WAL or
//     replication.
//   - crawl-scan: the §3.2 crawler sweeping every known URL plus
//     never-seen ones and user home pages. The key space is over twice
//     the response-cache capacity, so miss renders through the
//     platform's fragment views and LRU eviction dominate.
//   - comment-storm: commenters writing onto the hot pages readers are
//     reading (arXiv 2009.01772): platform writes and view fan-out, WAL
//     group commit with real fsync, replica apply, and cache patching
//     and invalidation, beside the read path.
type workload struct {
	name string
	// rate is the open-loop offered rate in ops/s: about a third of the
	// closed-loop throughput on a 2-CPU machine, so the open-loop
	// latencies describe a loaded fleet that GC pauses do not tip into
	// a growing backlog (see README.md).
	rate float64
	// pileOn grows the most-commented URL to this many comments during
	// set-up (0 leaves the corpus as generated).
	pileOn int
	gen    func(c *corpus, rng *rand.Rand) op
}

var workloads = []workload{
	{name: "viral-read", rate: 2000, pileOn: 2000, gen: genViral},
	{name: "crawl-scan", rate: 1000, gen: genCrawl},
	{name: "comment-storm", rate: 850, gen: genStorm},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type opKind uint8

const (
	opRead opKind = iota
	opComment
	opVote
)

func (k opKind) String() string {
	return [...]string{"read", "comment", "vote"}[k]
}

// op is one generated request. The fleet sees only what op describes;
// checks say what a correct answer must look like.
type op struct {
	kind    opKind
	path    string // request path and query (reads and votes)
	target  string // comment target address (comments)
	session string // session cookie, empty for anonymous
	gzip    bool   // send Accept-Encoding: gzip
	reval   bool   // revalidate with the last ETag seen for this request
	needle  string // a 200 body must contain this
}

// Session tokens. The probe sessions exist on every backend; writer
// sessions only on the primary, which is the only backend that takes
// writes.
const (
	sessNSFW = "nsfw-probe"
	sessOff  = "off-probe"
	writers  = 4
)

func writerSession(i int) string { return fmt.Sprintf("writer-%d", i) }

// corpus is what the generator knows about the generated world: the
// records it targets, drawn from the primary's store before traffic.
type corpus struct {
	seed    int64
	urls    []*platform.CommentURL // every known URL
	top     []*platform.CommentURL // by comment count, most first
	topCum  []int                  // cumulative comment counts over top
	pileOn  *platform.CommentURL
	users   []*platform.User // users with a Dissenter home page
	unknown uint64           // counter for never-seen URLs
}

func newCorpus(db *platform.DB, seed int64) *corpus {
	c := &corpus{seed: seed, urls: db.URLs()}
	counts := make(map[*platform.CommentURL]int, len(c.urls))
	for _, cu := range c.urls {
		counts[cu] = len(db.CommentsOnURL(cu.ID))
	}
	c.top = slices.Clone(c.urls)
	slices.SortStableFunc(c.top, func(a, b *platform.CommentURL) int {
		if d := cmp.Compare(counts[b], counts[a]); d != 0 {
			return d
		}
		return cmp.Compare(a.URL, b.URL)
	})
	sum := 0
	c.topCum = make([]int, len(c.top))
	for i, cu := range c.top {
		sum += max(counts[cu], 1)
		c.topCum[i] = sum
	}
	c.pileOn = c.top[0]
	for _, u := range db.DissenterUsers() {
		c.users = append(c.users, u)
	}
	return c
}

// weighted draws one of the n most-commented URLs with probability
// proportional to its comment count.
func (c *corpus) weighted(rng *rand.Rand, n int) *platform.CommentURL {
	n = min(n, len(c.top))
	x := rng.IntN(c.topCum[n-1])
	return c.top[sort.SearchInts(c.topCum[:n], x+1)]
}

func discussionPath(addr string) string { return "/discussion?url=" + url.QueryEscape(addr) }

func discussionRead(cu *platform.CommentURL) op {
	return op{kind: opRead, path: discussionPath(cu.URL), needle: `data-commenturl-id="` + cu.ID.String() + `"`}
}

func genViral(c *corpus, rng *rand.Rand) op {
	var o op
	switch x := rng.IntN(100); {
	case x < 25:
		o = discussionRead(c.pileOn)
	case x < 85:
		o = discussionRead(c.weighted(rng, 1000))
	case x < 93:
		o = op{kind: opRead, path: "/trends", needle: `<ol class="trends">`}
	default:
		o = op{kind: opRead, path: "/leaderboard", needle: `<ol class="leaderboard">`}
	}
	switch x := rng.IntN(10); {
	case x == 0:
		o.session = sessNSFW
	case x == 1:
		o.session = sessOff
	}
	o.gzip = rng.IntN(2) == 0
	o.reval = rng.IntN(10) < 3
	return o
}

func genCrawl(c *corpus, rng *rand.Rand) op {
	switch x := rng.IntN(100); {
	case x < 70:
		return discussionRead(c.urls[rng.IntN(len(c.urls))])
	case x < 90:
		// A never-seen address: the invitation page, never cached.
		c.unknown++
		addr := fmt.Sprintf("https://crawl.example/%d/%d/%x", c.seed, c.unknown, rng.Uint64())
		return op{kind: opRead, path: discussionPath(addr), needle: `class="discussion new"`}
	default:
		u := c.users[rng.IntN(len(c.users))]
		return op{kind: opRead, path: "/user/" + url.PathEscape(u.Username),
			needle: `class="profile" data-author-id="` + u.AuthorID.String() + `"`}
	}
}

func genStorm(c *corpus, rng *rand.Rand) op {
	cu := c.weighted(rng, 200)
	switch x := rng.IntN(100); {
	case x < 25:
		return op{kind: opComment, target: cu.URL, session: writerSession(rng.IntN(writers))}
	case x < 50:
		dir := "up"
		if rng.IntN(2) == 0 {
			dir = "down"
		}
		return op{kind: opVote, path: "/discussion/vote?url=" + url.QueryEscape(cu.URL) + "&dir=" + dir}
	default:
		return discussionRead(cu)
	}
}

// genOps draws n ops of workload w. The stream is a pure function of
// the corpus seed, the workload and the phase, so the same seed
// replays the same inputs.
func genOps(w workload, c *corpus, phase uint64, n int) []op {
	rng := rand.New(rand.NewPCG(uint64(c.seed), phase))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = w.gen(c, rng)
	}
	return ops
}
