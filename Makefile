# Tier-1 checks plus the race/bench gates the parallel evaluation engine
# relies on. `make check` runs every gate CI runs on every PR — race, cover,
# bench, fuzz, staticcheck, serve-smoke and report-smoke — so a local pass
# predicts CI's.

GO ?= go

.PHONY: all build vet test race bench cover fuzz serve-smoke report-smoke staticcheck check loc

all: check

build:
	$(GO) build ./...

# vet also covers the bench/ module, which root `go build ./...` skips (it is
# a module of its own, resolved offline through its replace directive), and
# fails on any unformatted Go file. Files are listed from git, so build trees
# such as .bench_build/ are never scanned.
vet: build
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files --cached --others --exclude-standard '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

test: vet
	$(GO) test ./...

# The determinism tests (internal/experiments, internal/ga, parallel_test.go
# files) only prove anything when the race detector watches the fan-out.
# internal/experiments runs ~9.5 minutes under -race on a loaded builder,
# which brushes against the Go test binary's default 600s per-package
# timeout — set it explicitly so the suite fails on real hangs, not load.
race: vet
	$(GO) test -race -timeout 30m ./...

# Short-mode benchmarks: one iteration each at smoke scale, enough to catch
# a benchmark that no longer compiles or panics without paying full cost.
bench:
	GIPPR_SCALE=smoke $(GO) test -short -bench=. -benchtime=1x ./...

# Coverage gate: short-mode statement coverage must stay at or above the
# floor measured when the gate was introduced (75.6% total). The one-pass
# stack-distance engine, the policy-diff explain engine, the packed
# recency stacks behind every exact-LRU policy (the LRU baseline of every
# figure and the L1/L2 capture), the tree-PLRU words behind every GIPPR
# policy and the cache's IPV step, the replacement policies, the set duel
# that picks the vector or mode in every follower set of DGIPPR, DGIPLR,
# DIP, DRRIP and GIPPR+bypass, the one cache type with its IPV step and
# replay walk, and the window timing model behind every CPI each carry
# PKG_COVER_MIN on top — they are the exactness anchors of the sweep,
# replay, why-report, LRU, PLRU, policy and timing paths, so their
# differential batteries must keep covering them. Raise the floors when coverage durably improves; never lower them
# to make a PR pass.
COVER_MIN ?= 75.0
PKG_COVER_MIN ?= 85.0
COVERPROFILE ?= cover.out
cover: vet
	$(GO) test -short -count=1 -coverprofile=$(COVERPROFILE) ./...
	@$(GO) tool cover -func=$(COVERPROFILE) | tail -n 1
	@total=$$($(GO) tool cover -func=$(COVERPROFILE) | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "coverage %.1f%% is below the %.1f%% gate\n", t, min; exit 1 } \
		printf "coverage %.1f%% meets the %.1f%% gate\n", t, min }'
	@for pkg in internal/stackdist internal/explain internal/recency internal/plrutree internal/policy internal/dueling internal/cache internal/cpu; do \
		pct=$$($(GO) test -short -count=1 -cover ./$$pkg | awk '{ for (i=1;i<=NF;i++) if ($$i ~ /%/) { gsub("%","",$$i); print $$i } }'); \
		awk -v p=$$pkg -v t=$$pct -v min=$(PKG_COVER_MIN) 'BEGIN { \
			if (t+0 < min+0) { printf "%s coverage %.1f%% is below the %.1f%% gate\n", p, t, min; exit 1 } \
			printf "%s coverage %.1f%% meets the %.1f%% gate\n", p, t, min }' || exit 1; \
	done

# End-to-end daemon smoke: build gippr-serve, drive the v1 job API with
# curl against an ephemeral port, and require SIGTERM to drain with exit 0.
serve-smoke: build
	bash scripts/serve_smoke.sh

# Report deadline smoke: build gippr-report and run three smoke sections
# with no deadline, then at -deadline 100ms..1000ms; every run must exit 0
# or 3 and print whole sections, a prefix of the undeadlined run's stdout.
report-smoke: build
	bash scripts/report_smoke.sh

# Static analysis. Skipped with a notice when the binary is not installed
# (CI installs it; we add no deps here).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Fuzz smoke: a few seconds per target over the external-input boundaries
# (binary trace reader, IPV parser, job submissions), the multi-model
# replay against one-policy replays, the cache's IPV step against GIPPR's
# and GIPLR's callbacks, the one-pass sweep, the explain decomposition, the packed recency stacks
# against a naive list model, the tree-PLRU words against a pointer-based
# tree, and the integer-tick window model against its float64 reference.
# Each newly interesting input is minimized for at most 1s: at the default
# of 60s a worker could spend most of a 10s window minimizing one input and
# execute almost nothing else.
# Long campaigns run these by hand with a bigger -fuzztime.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzParseVector -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/ipv
	$(GO) test -run=^$$ -fuzz=FuzzMultiRunConsistency -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/cpu
	$(GO) test -run=^$$ -fuzz=FuzzBatchedReplayConsistency -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/cache
	$(GO) test -run=^$$ -fuzz=FuzzSubmitRequest -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzOnePassConsistency -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/stackdist
	$(GO) test -run=^$$ -fuzz=FuzzExplainDecomposition -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/explain
	$(GO) test -run=^$$ -fuzz=FuzzMoveTo -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/recency
	$(GO) test -run=^$$ -fuzz=FuzzTrees -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/plrutree
	$(GO) test -run=^$$ -fuzz=FuzzWindowModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/cpu

check: race cover bench fuzz staticcheck serve-smoke report-smoke

# Source size per package: non-blank lines that are not // comments, over
# git-tracked non-test .go files outside the bench/ module, plus the total.
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:bench/**' | xargs awk '{ sub(/^[ \t]+/, "") } \
		$$0 != "" && !/^\/\// { d = FILENAME; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d]++; t++ } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

