# Tier-1 checks plus the race/bench gates the parallel evaluation engine
# relies on. `make check` runs every gate CI runs on every PR — race, cover,
# bench, fuzz, staticcheck and serve-smoke — so a local pass predicts CI's.

GO ?= go

.PHONY: all build vet test race bench cover fuzz serve-smoke staticcheck check

all: check

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

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
# stack-distance engine, the batched replay kernel, and the policy-diff
# explain engine each carry PKG_COVER_MIN on top — they are the
# exactness anchors of the sweep, replay, and why-report paths, so their
# differential batteries must keep covering them. Raise the floors when
# coverage durably improves; never lower them to make a PR pass.
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
	@for pkg in internal/stackdist internal/batchreplay internal/explain; do \
		pct=$$($(GO) test -short -count=1 -cover ./$$pkg | awk '{ for (i=1;i<=NF;i++) if ($$i ~ /%/) { gsub("%","",$$i); print $$i } }'); \
		awk -v p=$$pkg -v t=$$pct -v min=$(PKG_COVER_MIN) 'BEGIN { \
			if (t+0 < min+0) { printf "%s coverage %.1f%% is below the %.1f%% gate\n", p, t, min; exit 1 } \
			printf "%s coverage %.1f%% meets the %.1f%% gate\n", p, t, min }' || exit 1; \
	done

# End-to-end daemon smoke: build gippr-serve, drive the v1 job API with
# curl against an ephemeral port, and require SIGTERM to drain with exit 0.
serve-smoke: build
	bash scripts/serve_smoke.sh

# Static analysis. Skipped with a notice when the binary is not installed
# (CI installs it; we add no deps here).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Fuzz smoke: a few seconds per target over the external-input boundaries
# (binary trace reader, IPV parser), the single-pass multi-model replay
# kernel, and the batched branch-free replay kernel's scalar equivalence.
# Long campaigns run these by hand with a bigger -fuzztime.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzParseVector -fuzztime=$(FUZZTIME) ./internal/ipv
	$(GO) test -run=^$$ -fuzz=FuzzMultiRunConsistency -fuzztime=$(FUZZTIME) ./internal/cpu
	$(GO) test -run=^$$ -fuzz=FuzzBatchedReplayConsistency -fuzztime=$(FUZZTIME) ./internal/batchreplay
	$(GO) test -run=^$$ -fuzz=FuzzSubmitRequest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzOnePassConsistency -fuzztime=$(FUZZTIME) ./internal/stackdist
	$(GO) test -run=^$$ -fuzz=FuzzExplainDecomposition -fuzztime=$(FUZZTIME) ./internal/explain

check: race cover bench fuzz staticcheck serve-smoke
