# Developer entry points. CI runs the same targets (.github/workflows/ci.yml).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint lint-json lockgraph bufgraph hotpaths fuzz soak bench-smoke bench-tick bench-receiver

SOAKSEED ?= 1
SOAKTIME ?= 30s

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint is the repo-invariant gate: go vet plus the dmplint suite
# (detsim, lockguard, wiresafe, netdeadline, closecheck, lockorder,
# goleak, atomicmix, hotalloc, copycheck, bufown, exhaustenum — see
# DESIGN.md "Enforced invariants"). Findings not recorded in the
# burn-down baseline (dmplint_baseline.json, currently empty) exit
# non-zero.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/dmplint -baseline dmplint_baseline.json ./...

# lint-json writes the machine-readable findings (including inline
# suppressions, marked) to dmplint.json; CI uploads it as an artifact.
lint-json:
	$(GO) run ./cmd/dmplint -json ./... > dmplint.json

# lockgraph renders the whole-program lock-acquisition graph as Graphviz
# dot on stdout (cycle edges in red). Pipe into `dot -Tsvg` to view.
lockgraph:
	$(GO) run ./cmd/dmplint -lockgraph

# bufgraph renders the buffer-ownership borrow graph as Graphviz dot on
# stdout: who borrows which shared payload buffer, where it is lent on,
# and which sink ends each borrow (sinks in blue). Pipe into
# `dot -Tsvg` to view.
bufgraph:
	$(GO) run ./cmd/dmplint -bufgraph

# hotpaths dumps the `// hotpath` annotated roots and the transitive
# callee closure the hotalloc/copycheck analyzers police.
hotpaths:
	$(GO) run ./cmd/dmplint -hotpaths

# fuzz gives each wire-format target, and the receiver's arrival log, a
# short budget; CI runs the same smoke. Raise FUZZTIME locally for a
# deeper session.
fuzz:
	$(GO) test -fuzz=FuzzParseJoin -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzParseHeader -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzParseFrameHeader -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzArrivalLog -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzParseFaultScript -fuzztime=$(FUZZTIME) -run '^$$' ./internal/emunet

# bench-smoke runs three short workloads of the repository benchmark
# (BENCHMARK.json, benchmark/) end to end — build from source, set up,
# measure, check — and fails unless each result line says the run was
# correct: fanout_steady for the at-pace path, fanout_overload because
# nothing else here exercises workers blocked in Write, eviction, churn
# and the budget governor together, multipath_emu because it is the only
# one of the three that runs the paper's own sender and receiver. The
# benchmark is a nested module, so `go test ./...` at the root never
# enters it; CI runs this and `go test -C benchmark ./...`.
bench-smoke:
	@out=$$(bash benchmark/run.sh --workload fanout_steady --seconds 5); status=$$?; \
	echo "$$out"; [ $$status -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct": *true'
	@out=$$(bash benchmark/run.sh --workload fanout_overload --seconds 5 --trace 0); status=$$?; \
	echo "$$out"; [ $$status -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct": *true'
	@out=$$(bash benchmark/run.sh --workload multipath_emu --seconds 5 --trace 0); status=$$?; \
	echo "$$out"; [ $$status -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct": *true'

# bench-tick times the generator tick's critical section (PublishAt: ring
# publish, every shard's wake, the governor pass) over 1k, 4k and 16k
# parked subscribers, with and without a byte budget — the root-module
# reproducer of "a tick over a population at pace costs O(shards)": the
# tick-ns/op column must not grow with the population. ns/op also counts the
# wait for the previous tick to be served; read tick-ns/op.
TICKS ?= 300
bench-tick:
	$(GO) test -run '^$$' -bench BenchmarkPublishTick -benchtime $(TICKS)x ./internal/hub

# bench-receiver replays a 200 000-packet stream from memory over two paths
# into a core.Receiver: ns/frame is what recording a packet costs with both
# readers on the receiver's lock, B/op divided by 200 000 what the receiver
# allocates per packet over the stream (its delta-coded arrival record, a
# few bytes here because the replay's stamps are nanoseconds apart, plus
# change).
REPLAYS ?= 5
bench-receiver:
	$(GO) test -run '^$$' -bench BenchmarkReceiverIngest -benchtime $(REPLAYS)x ./internal/core

# soak runs the randomized chaos harness under the race detector in each
# of its three topologies in turn — one hub, a four-stream registry, a
# two-tier relay tree — with robustness invariants checked after every
# event of the seeded schedule; soak-<topology>.json records each run's
# report. CI runs the same matrix nightly; a failure reproduces from the
# printed command (make soak SOAKSEED=<seed>). SOAKSEED=0 derives a fresh
# seed.
soak:
	$(GO) run -race ./cmd/dmpchaos -seed $(SOAKSEED) -duration $(SOAKTIME) -report soak-hub.json
	$(GO) run -race ./cmd/dmpchaos -streams 4 -seed $(SOAKSEED) -duration $(SOAKTIME) -report soak-registry.json
	$(GO) run -race ./cmd/dmpchaos -depth 2 -seed $(SOAKSEED) -duration $(SOAKTIME) -report soak-tree.json
