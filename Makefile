# Targets mirror the CI pipeline (.github/workflows/ci.yml): a green
# `make ci` locally means a green pipeline.

GO ?= go

# platform covers the event pipeline and every materialized view
# (events.go, trendindex, voteindex, followindex); rankheap covers both
# the bounded TopK and the non-monotone Exact structure; eventlog and
# replica cover the durability/replication layer (WAL group commit,
# streaming apply, snapshot bootstrap); faultinject/httpguard/chaos
# cover the fault seams and the degradation machinery they exercise;
# gateway covers the fleet front door (probing, failover, breakers).
RACE_PKGS = ./internal/platform/... ./internal/respcache/... \
            ./internal/rankheap/... \
            ./internal/eventlog/... ./internal/replica/... \
            ./internal/faultinject/... ./internal/httpguard/... \
            ./internal/gateway/... ./internal/chaos/... \
            ./internal/gabapi/... ./internal/dissenterweb/... \
            ./internal/crawlkit/... ./internal/dissentercrawl/...

# Allocation budgets for one cache-miss fill of the write-maintained
# rankings (both measured 5) and of a discussion page from the fragment
# view (measured 0, constant in comments-per-URL; headroom for noise).
# A regression past these fails bench-budget. The HIT
# budget is exact: a cache hit serves composed bytes and must allocate
# NOTHING — the benchmark rounds its MemStats delta to the nearest
# integer, so there is no noise to leave headroom for.
TRENDS_ALLOC_BUDGET = 64
LEADER_ALLOC_BUDGET = 64
DISC_ALLOC_BUDGET = 64
HIT_ALLOC_BUDGET = 0

.PHONY: build test race chaos crash-recovery bench bench-budget bench-compare lint fuzz-smoke fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# The scripted fault-injection suite (internal/chaos): nine
# deterministic schedules — disk full during rotation, sticky fsync
# flipping /readyz, partition mid-stream, flapping primary during
# bootstrap, serve-stale, drain-flushes-WAL, plus three gateway
# schedules (replica killed mid-request, primary flap during write
# load, whole-pool lag excursion) — each asserting no event loss,
# byte-identical convergence, and zero failed reads while any backend
# is healthy. Also part of `race`.
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos/

# The out-of-process crash-recovery proof on its own (it also runs as
# part of `test`): kill -9 a replica child process mid-stream, restart
# it over the same directory, byte-compare every page vs the primary.
crash-recovery:
	$(GO) test -count=1 -v -run TestReplicaCrashRecovery ./internal/replica/

# Smoke-run every benchmark once so bench code can never rot; use
# `go test -bench=Concurrent -cpu 1,2,4,8 .` for real numbers. The
# serving-path benchmarks also emit a machine-readable baseline
# (BENCH_serve.json: ns/op, allocs/op, cache hit rate). The second
# invocation sweeps the in-process cache-hit benchmarks across -cpu
# 1,2,4 (each parallelism records its own .../cpu=N baseline key);
# BENCH_SERVE_MERGE makes that separate test process extend the file
# the first invocation wrote instead of clobbering it, while the first
# invocation stays non-merging so deleted benchmarks fall out.
bench:
	BENCH_SERVE_JSON=$(CURDIR)/BENCH_serve.json \
		$(GO) test -run 'ProbablyNoSuchTest' -bench=. -benchtime=1x ./...
	BENCH_SERVE_JSON=$(CURDIR)/BENCH_serve.json BENCH_SERVE_MERGE=1 \
		$(GO) test -run 'ProbablyNoSuchTest' -bench 'Hit' -cpu 1,2,4 -benchtime=100x .

# Budget assertions on the hot read paths: a cache-miss trends,
# leaderboard, or discussion fill must stay under its allocation budget
# regardless of store or page size (all are served from
# write-maintained views: O(TrendLimit) / O(LeaderLimit) / O(delta)).
# The miss fills are benchmarked in-package, in internal/dissenterweb.
bench-budget:
	BENCH_TRENDS_MAX_ALLOCS=$(TRENDS_ALLOC_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench BenchmarkTrendsRenderMiss -benchtime=200x ./internal/dissenterweb/
	BENCH_LEADER_MAX_ALLOCS=$(LEADER_ALLOC_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench BenchmarkLeaderboardRenderMiss -benchtime=200x ./internal/dissenterweb/
	BENCH_DISC_MAX_ALLOCS=$(DISC_ALLOC_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench BenchmarkDiscussionRenderMiss -benchtime=200x ./internal/dissenterweb/
	BENCH_HIT_MAX_ALLOCS=$(HIT_ALLOC_BUDGET) \
		$(GO) test -run 'ProbablyNoSuchTest' -bench 'BenchmarkDiscussionHit$$|BenchmarkDiscussionHit304$$' -benchtime=200x .

# Regression gate against the committed baseline: rerun the serving
# benchmarks into a scratch file and diff it against BENCH_serve.json.
# Thresholds are generous (order-of-magnitude guard, not percent drift)
# because the smoke run is -benchtime=1x on an arbitrary machine; see
# cmd/bench-compare for the knobs. After an INTENTIONAL improvement,
# refresh the baseline with `make bench` and commit it.
bench-compare:
	BENCH_SERVE_JSON=$(CURDIR)/BENCH_serve.tmp.json \
		$(GO) test -run 'ProbablyNoSuchTest' -bench=. -benchtime=1x ./...
	BENCH_SERVE_JSON=$(CURDIR)/BENCH_serve.tmp.json BENCH_SERVE_MERGE=1 \
		$(GO) test -run 'ProbablyNoSuchTest' -bench 'Hit' -cpu 1,2,4 -benchtime=100x .
	$(GO) run ./cmd/bench-compare -baseline $(CURDIR)/BENCH_serve.json \
		-current $(CURDIR)/BENCH_serve.tmp.json
	rm -f $(CURDIR)/BENCH_serve.tmp.json

# The project's own four-analyzer suite (internal/lint: viewpurity,
# cachecoherence, lockscope, wirecompat) runs through the go vet
# -vettool protocol. The tool is built once into bin/ and the go
# command caches per-package vet results against its hash, so repeat
# runs only re-analyze changed packages. fleetbench is its own module,
# so ./... does not reach it; vetting it separately makes a removed
# API that the benchmark still calls fail here rather than in a
# benchmark run.
VETTOOL = $(CURDIR)/bin/dissenter-vet

lint:
	$(GO) build -o $(VETTOOL) ./cmd/dissenter-vet
	$(GO) vet -vettool=$(VETTOOL) ./...
	$(GO) vet ./...
	cd fleetbench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Actually execute the codec round-trip fuzzer for a few seconds (the
# plain test run only replays the seed corpus). Ten seconds is a smoke
# pass, not a campaign; run longer locally when touching the codec.
fuzz-smoke:
	$(GO) test -run '^FuzzRoundTrip$$' -fuzz '^FuzzRoundTrip$$' -fuzztime=10s ./internal/eventlog/

fmt:
	gofmt -w .

ci: build lint test race chaos bench bench-budget fuzz-smoke
