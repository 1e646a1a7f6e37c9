package dissenterweb

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// Cache-miss render budgets. A miss on a ranking page or a discussion
// page runs one fill — trendsBody, leaderboardBody, or discussionPage —
// and then composes the response; these benchmarks measure the fill
// alone, which is the work the store's write-maintained views keep
// O(page). Compose and gzip are per-generation work outside the fill
// and stay outside the measurement.
//
// The rankings are measured at two store sizes two orders of magnitude
// apart, the discussion page at 100 and 10k comments: ns/op and
// allocs/op must stay flat across each pair, where a full scan would
// scale with the store or the page. With BENCH_TRENDS_MAX_ALLOCS,
// BENCH_LEADER_MAX_ALLOCS, or BENCH_DISC_MAX_ALLOCS set, the matching
// benchmark fails past that many allocations per fill — the
// bench-budget assertion that catches hot-path regressions.

// renderScale is one benchmark store shape.
type renderScale struct {
	name      string
	urls, per int // per = comments per URL
	authors   int
}

var (
	rankingScales = []renderScale{
		{name: "urls=1k_comments=10k", urls: 1_000, per: 10, authors: 64},
		{name: "urls=100k_comments=1M", urls: 100_000, per: 10, authors: 64},
	}
	discussionScales = []renderScale{
		{name: "comments=100", urls: 4, per: 100, authors: 16},
		{name: "comments=10k", urls: 4, per: 10_000, authors: 16},
	}
)

// renderFixtures caches the read-only stores by scale name, so the
// trends and leaderboard benchmarks share one 1M-comment build.
var renderFixtures = map[string]*platform.DB{}

// renderFixture returns a store with sc.urls URL records and
// sc.urls*sc.per comments, built directly: synth's realistic corpus
// would take far too long at 1M comments, and the fills only care
// about counts, flags, and votes. Every 13th comment is NSFW and every
// 17th offensive, so each session view differs.
func renderFixture(sc renderScale) *platform.DB {
	if db, ok := renderFixtures[sc.name]; ok {
		return db
	}
	gen := ids.NewGenerator(0x7E4D5)
	base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	users := make([]*platform.User, sc.authors)
	for i := range users {
		users[i] = &platform.User{
			GabID:        ids.GabID(i + 1),
			Username:     fmt.Sprintf("bench-author-%03d", i),
			HasDissenter: true,
			AuthorID:     gen.NewAt(base),
		}
	}
	urls := make([]*platform.CommentURL, sc.urls)
	for i := range urls {
		urls[i] = &platform.CommentURL{
			ID:    gen.NewAt(base.Add(time.Duration(i%4096) * time.Second)),
			URL:   fmt.Sprintf("https://bench.trends/story/%07d", i),
			Title: fmt.Sprintf("Bench story #%d", i),
			// Positive and negative nets, so the leaderboard ranks a
			// realistic score surface.
			Ups:       (i * 7) % 23,
			Downs:     (i * 5) % 19,
			FirstSeen: base.Add(time.Duration(i%4096) * time.Second),
		}
	}
	comments := make([]*platform.Comment, sc.urls*sc.per)
	at := base.Add(2 * time.Hour)
	for i := range comments {
		comments[i] = &platform.Comment{
			ID:        gen.NewAt(at),
			URLID:     urls[i%sc.urls].ID,
			AuthorID:  users[i%sc.authors].AuthorID,
			Text:      "bench trends comment",
			CreatedAt: at,
			NSFW:      i%13 == 0,
			Offensive: i%17 == 0,
		}
	}
	db := platform.New(users, urls, comments, nil)
	renderFixtures[sc.name] = db
	return db
}

// Sinks keep the measured fills from being optimized away.
var (
	bodySink string
	pageSink page
)

// benchmarkRenderMiss times the fill that setup returns for each
// scale's store. One warm-up call first fills the immutable fragment
// memos (row remainders, discussion heads, comment streams), so the
// measured calls see the steady state a production miss runs in.
// Single-goroutine, so the MemStats delta is the fill's own allocation
// count.
func benchmarkRenderMiss(b *testing.B, scales []renderScale, budgetEnv string, setup func(s *Server, db *platform.DB) func()) {
	for _, sc := range scales {
		b.Run(sc.name, func(b *testing.B) {
			db := renderFixture(sc)
			fill := setup(NewServer(db), db)
			fill()
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			allocsPerOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
			if budget := os.Getenv(budgetEnv); budget != "" {
				max, err := strconv.ParseFloat(budget, 64)
				if err != nil {
					b.Fatalf("bad %s %q: %v", budgetEnv, budget, err)
				}
				if allocsPerOp > max {
					b.Fatalf("miss fill allocates %.1f objects/op at %s, budget %v — the hot path regressed",
						allocsPerOp, sc.name, budget)
				}
			}
		})
	}
}

// BenchmarkTrendsRenderMiss pins the anonymous trends fill.
func BenchmarkTrendsRenderMiss(b *testing.B) {
	benchmarkRenderMiss(b, rankingScales, "BENCH_TRENDS_MAX_ALLOCS", func(s *Server, _ *platform.DB) func() {
		return func() { bodySink = s.trendsBody(Session{}) }
	})
}

// BenchmarkLeaderboardRenderMiss pins the leaderboard fill, ranked over
// non-monotone net votes.
func BenchmarkLeaderboardRenderMiss(b *testing.B) {
	benchmarkRenderMiss(b, rankingScales, "BENCH_LEADER_MAX_ALLOCS", func(s *Server, _ *platform.DB) func() {
		return func() { bodySink = s.leaderboardBody() }
	})
}

// BenchmarkDiscussionRenderMiss pins the anonymous fill of one
// discussion page: a memoized head, two tally integers, and an O(1)
// snapshot of the view's pre-escaped comment stream, however long the
// page.
func BenchmarkDiscussionRenderMiss(b *testing.B) {
	benchmarkRenderMiss(b, discussionScales, "BENCH_DISC_MAX_ALLOCS", func(s *Server, db *platform.DB) func() {
		var cu *platform.CommentURL
		db.RangeURLs(func(first *platform.CommentURL) bool { cu = first; return false })
		return func() { pageSink = s.discussionPage(cu, false, false) }
	})
}
