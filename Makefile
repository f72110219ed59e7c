GO ?= go

.PHONY: all build test lint lint-json lint-allows race fmt fuzz experiments-smoke examples-smoke load-smoke benchmark benchmark-test

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short coverage-guided fuzz passes, the targets and budget of CI's
# "Fuzz (short)" step: the SQL parser, the response writer against
# encoding/json, the LIKE matcher against its regexp oracle, the value
# layout against its own contracts. -fuzz takes
# one target per run; longer local runs just raise FUZZTIME.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/sqlparse
	$(GO) test -fuzz='^FuzzResponseWriter$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -fuzz='^FuzzLike$$' -fuzztime=$(FUZZTIME) ./internal/exec
	$(GO) test -fuzz='^FuzzValue$$' -fuzztime=$(FUZZTIME) ./internal/value

# lint = formatting gate + standard vet + the in-tree analyzer suite
# (six syntactic analyzers — ctxpoll, errwrap, floatcmp, maporder,
# nopanic, probflow; see DESIGN.md §7, and §12 for the driver)
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

# cmd/experiments is the only regenerator of the paper's figures and
# tables (EXPERIMENTS.md) and has no test of its own: run every one of
# them at a tiny scale, so that a figure that stops running fails the
# build. The numbers it prints mean nothing at this scale.
experiments-smoke:
	$(GO) run ./cmd/experiments -scale 0.0003 -reps 3 all

# The programs under examples/ have no tests of their own: run every one,
# so that an example that stops working fails the build (~1 s together).
examples-smoke:
	@set -e; for e in examples/*/; do echo "== $${e%/}"; $(GO) run ./$${e%/}; done

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
