GO ?= go

.PHONY: all build test lint lint-json lint-allows race fmt fuzz bench-json bench-json-pr7 bench-json-pr8 load-smoke benchmark benchmark-test

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short coverage-guided fuzz pass over the SQL parser; CI runs the same
# budget, longer local runs just raise FUZZTIME.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=Fuzz -fuzztime=$(FUZZTIME) ./internal/sqlparse

# lint = formatting gate + standard vet + the in-tree analyzer suite
# (nine analyzers — atomicmix, ctxpoll, errwrap, floatcmp, maporder,
# nopanic, probflow, probtaint, versionbump; see DESIGN.md §7 and §12)
# + the lint:allow inventory, which fails on stale waivers.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/conquerlint ./...
	@$(GO) run ./cmd/conquerlint -allows ./... >/dev/null

# Machine-readable findings report (CI uploads this as an artifact).
lint-json:
	$(GO) run ./cmd/conquerlint -json ./...

# Every lint:allow waiver with its reason and whether it still
# suppresses anything; stale waivers fail the run.
lint-allows:
	$(GO) run ./cmd/conquerlint -allows ./...

fmt:
	gofmt -w .

# Serial-vs-parallel timings for Figures 7 and 8 as machine-readable
# JSON (ns per op at worker counts 1/2/4, plus the host's core count;
# Figure 8 rows come in metrics=on/off pairs bounding the observability
# overhead), plus query-cache rows for each rewritten query —
# cache=cold/warm/invalidated — pinning the hit speedup and the cost of
# a version-vector invalidation.
bench-json: bench-json-pr7
	$(GO) run ./cmd/benchjson -out BENCH_PR5.json

# Serving-layer load benchmark (DESIGN.md §13): an in-process conquerd
# over generated dirty TPC-H data, an uncontended baseline phase, then
# a 4×-capacity closed-loop overload. BENCH_PR7.json records latency
# percentiles and shed rate for both phases plus the acceptance checks
# (overload sheds with 429, every shed carries Retry-After, admitted
# p99 within 3× of baseline).
bench-json-pr7:
	$(GO) run ./cmd/loadgen -mode bench -duration 4s -out BENCH_PR7.json

# Cluster-sharded execution benchmark (DESIGN.md §14): the rewritten
# queries and cache cold/warm phases at shard counts 1/2/4, with the
# worst skew ratio the shard balancer saw. BENCH_PR8.json carries the
# host's core count — on a single CPU the multi-shard rows measure
# partitioning and gather overhead, not speedup.
bench-json-pr8:
	$(GO) run ./cmd/benchjson -pr8 -out BENCH_PR8.json

# CI load-smoke gate: low-QPS traffic under the admission watermark
# must shed nothing, fail nothing, and keep p99 interactive.
load-smoke:
	$(GO) run ./cmd/loadgen -mode smoke -qps 15 -duration 2s

# The repo's one benchmark (BENCHMARK.json, benchmark/README.md): all six
# workloads untraced then traced, results under benchmark/out/. ARGS
# passes flags through, e.g.
#   make benchmark ARGS='--workload fig8_q9 --seed 42 --seconds 12 --trace 0'
#   make benchmark ARGS='-compare old.json new.json'
benchmark:
	bash benchmark/run.sh $(ARGS)

# benchmark/ is a module of its own, so `make test` does not run its
# tests; this does (under 5 s: spec/JSON equality, -compare verdicts, a
# -quick pass over every workload).
benchmark-test:
	cd benchmark && $(GO) test ./...
