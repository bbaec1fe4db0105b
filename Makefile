# Developer entry points. CI runs the same targets (.github/workflows/ci.yml).

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint layers lockrank allocs fuzz examples soak bench-smoke bench-tick bench-receiver bench-deliver bench-fanout bench-forwarder bench-pair sim-tables

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
# (detsim, lockguard, exhaustenum — see DESIGN.md "Enforced invariants"),
# type-checked on go/types. The benchmark is a nested module that ./...
# stops at, so dmplint runs a second time inside it. Any finding exits
# non-zero.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/dmplint ./...
	$(GO) -C benchmark run dmpstream/cmd/dmplint ./...

# layers is the package layering gate: the broadcast hub and the registry
# speak the wire format (internal/wire) and must not depend on the paper's
# server and client (internal/core), which is built on the hub: core.Server
# is a hub with one subscriber.
layers:
	@deps=$$($(GO) list -deps ./internal/hub ./internal/registry) || exit 1; \
	if echo "$$deps" | grep -qx 'dmpstream/internal/core'; then \
		echo "layers: internal/hub or internal/registry depends on dmpstream/internal/core"; exit 1; \
	fi

# lockrank runs the packages that nest the hub's locks — core's server is a
# hub — with the lock-rank check built in (internal/lockrank): any executed
# nesting that inverts the rank table, nests two locks of one rank, or takes
# an unranked lock panics with both acquisition stacks.
lockrank:
	$(GO) test -tags lockrank ./internal/hub ./internal/relay ./internal/registry ./internal/chaos ./internal/core

# allocs runs every allocation gate by name, uncached: the AllocsPerRun
# tests that hold the wire codec, core's player and its playout step, the
# hub's generator tick,
# ingest, wake, governor and shard worker (core's server runs the same), the
# relay forwarder's ingest, and the registry's routed write and re-attach to
# exact allocation counts (see DESIGN.md "Enforced invariants"). AllocsPerRun cannot measure under the race detector or the
# lockrank build, so the gates are built out of both.
ALLOC_GATES = AllocFree|AllocsFlat|ReattachAllocs|OneAlloc|AllocMeasurement
allocs:
	$(GO) test -count=1 -run '$(ALLOC_GATES)' ./internal/wire ./internal/core ./internal/hub ./internal/relay ./internal/registry

# fuzz gives each wire-format target, the receiver's arrival log, the trace
# file reader and the analysis behind it, the player's playout step against
# the trace's late count, the path reader's end-of-stream rule against a
# reference model, the emulator's lazily drawn episode schedule, the relay
# forwarder's first commit and its reorder rule against a reference model,
# and the hub's per-path resend record a short budget; CI runs the same
# smoke. Raise FUZZTIME locally for a deeper session.
fuzz:
	$(GO) test -fuzz=FuzzParseJoin -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzParseHeader -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzParseFrameHeader -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wire
	$(GO) test -fuzz=FuzzArrivalLog -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzReadTraceCSV -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzPlayoutMatchesTrace -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzPathReaderTranscript -fuzztime=$(FUZZTIME) -run '^$$' ./internal/core
	$(GO) test -fuzz=FuzzParseFaultScript -fuzztime=$(FUZZTIME) -run '^$$' ./internal/emunet
	$(GO) test -fuzz=FuzzEpisodeSchedule -fuzztime=$(FUZZTIME) -run '^$$' ./internal/emunet
	$(GO) test -fuzz=FuzzForwarderSync -fuzztime=$(FUZZTIME) -run '^$$' ./internal/relay
	$(GO) test -fuzz=FuzzForwarderSeqs -fuzztime=$(FUZZTIME) -run '^$$' ./internal/relay
	$(GO) test -fuzz=FuzzResendRecord -fuzztime=$(FUZZTIME) -run '^$$' ./internal/hub

# bench-smoke runs four short workloads of the repository benchmark
# (BENCHMARK.json, benchmark/) end to end — build from source, set up,
# measure, check — and fails unless each result line says the run was
# correct: fanout_steady for the at-pace path, fanout_overload because
# nothing else here exercises workers blocked in Write, eviction, churn
# and the budget governor together, multipath_emu because it is the only
# one that runs the paper's own sender and receiver, tree_edge because it
# is the only one that runs the relay forwarder and a kernel accept loop. The
# benchmark is a nested module, so `go test ./...` at the root never
# enters it; CI runs this and `go test -C benchmark ./...`.
bench-smoke:
	@out=$$(bash benchmark/run.sh --workload fanout_steady --seconds 5); status=$$?; \
	echo "$$out"; [ $$status -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct": *true'
	@out=$$(bash benchmark/run.sh --workload fanout_overload --seconds 5 --trace 0); status=$$?; \
	echo "$$out"; [ $$status -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct": *true'
	@out=$$(bash benchmark/run.sh --workload multipath_emu --seconds 5 --trace 0); status=$$?; \
	echo "$$out"; [ $$status -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct": *true'
	@out=$$(bash benchmark/run.sh --workload tree_edge --seconds 5 --trace 0); status=$$?; \
	echo "$$out"; [ $$status -eq 0 ] && echo "$$out" | tail -n 1 | grep -q '"correct": *true'

# bench-tick times the tick's critical section (PublishAt: ring publish,
# every shard's wake, the governor pass) over 1k, 4k and 16k parked
# subscribers, with and without a byte budget — the root-module reproducer
# of "a tick over a population at pace costs O(shards)": the tick-ns/op
# column must not grow with the population. BenchmarkGeneratorTick times a
# generator hub's own tick (publishTick: the rendered publish with its ring
# release and the governor walk every such tick makes) over 1k subscribers
# at pace and with a tenth of them held behind; allocs/op must read 0.
# ns/op also counts the wait for the previous tick to be served; read
# tick-ns/op.
TICKS ?= 300
bench-tick:
	$(GO) test -run '^$$' -bench 'BenchmarkPublishTick|BenchmarkGeneratorTick' -benchtime $(TICKS)x ./internal/hub

# bench-receiver replays a 200 000-packet stream from memory over two paths
# into a core.Receiver: ns/frame is what recording a packet costs with both
# readers on the receiver's lock, B/op divided by 200 000 what the receiver
# allocates per packet over the stream (its delta-coded arrival record, a
# few bytes here because the replay's stamps are nanoseconds apart, plus
# change).
REPLAYS ?= 5
bench-receiver:
	$(GO) test -run '^$$' -bench BenchmarkReceiverIngest -benchtime $(REPLAYS)x ./internal/core

# bench-deliver times one hub worker delivery step by hand — the sender of
# every hub path and of core's server alike — lease and pin
# (stepLocked), header patch and vectored write into a discarding conn
# (writeBatch), unpin (releaseBatch) and hand-back (returnLocked) — for a
# one-frame write at pace and a 32-frame catch-up. allocs/op must read 0;
# ns/frame is the per-frame cost of the delivery stage.
DELIVERTIME ?= 1s
bench-deliver:
	$(GO) test -run '^$$' -bench BenchmarkDeliverBatch -benchtime $(DELIVERTIME) ./internal/hub

# bench-fanout times the wake → worker → write stage with the real shard
# workers: one tick published to 64 and to 1024 parked paths on discarding
# conns, waited on until every path has written it. tick-ns is publish to
# the last write; starts/tick (worker goroutines started per tick) must
# read 0 when no write blocks, and allocs/op 0.
FANOUTTICKS ?= 2000
bench-fanout:
	$(GO) test -run '^$$' -bench BenchmarkTickFanout -benchtime $(FANOUTTICKS)x ./internal/hub

# bench-forwarder times the relay's ingest stage — the forwarder's reorder
# step, PublishAt into a local hub with no subscribers, the reorder ring's
# recycling — over 8-packet cycles of 256-byte packets, in order and with
# every 8th packet reordered. ns/packet is the per-packet cost of the stage;
# allocs/op must read 0 in both.
FORWARDERTIME ?= 1s
bench-forwarder:
	$(GO) test -run '^$$' -bench BenchmarkForwarderIngest -benchtime $(FORWARDERTIME) ./internal/relay

# bench-pair compares one package's Go benchmarks between the parent
# revision PARENT and the working tree (cmd/dmppair): the parent's
# committed files are exported under .bench_pair/ (git-ignored), both
# sides are built with `go test -c` and run N times each in alternating
# order, and every metric gets each side's median and quartiles, the pairs
# the change read lower in, and a sign-test verdict — "no difference"
# unless one side wins 9 pairs of 10 or better. BENCHTIME, when set, is
# passed to every run as -benchtime.
PARENT ?= HEAD
PKG ?= ./internal/hub
BENCH ?= .
N ?= 10
BENCHTIME ?=
bench-pair:
	$(GO) run ./cmd/dmppair -parent '$(PARENT)' -pkg '$(PKG)' -bench '$(BENCH)' -n $(N) $(if $(BENCHTIME),-benchtime $(BENCHTIME))

# sim-tables prints the quick, seed-1 tables of every packet-simulator
# experiment with dmpbench's "# ... finished in" timing lines stripped, so
# two commits' outputs compare with one diff: `make sim-tables > a.txt` on
# each, then `diff a.txt b.txt`. About 75 s on a 2-vCPU machine.
SIM_EXPS = fig4a fig4b fig5a fig5b correlated table2 table3 \
	ablation-sndbuf ablation-red ablation-flavor extq1 toy73sim
sim-tables:
	@for e in $(SIM_EXPS); do \
		out=$$($(GO) run ./cmd/dmpbench -exp $$e -fidelity quick -seed 1) || exit 1; \
		printf '%s\n\n' "$$out" | sed '/^# .* finished in /d'; \
	done

# examples runs the examples that stream through the root package's Server
# and Client end to end (about a minute in all: quickstart 5 s, hot-add 13 s,
# path-failover 20 s, path-flap 15 s). Each exits non-zero if its trace is
# missing a packet: the gate that a path held behind, added late, congested
# for seconds or flapped loses nothing.
EXAMPLES = quickstart hot-add path-failover path-flap
examples:
	@for e in $(EXAMPLES); do \
		echo "== $$e"; $(GO) run ./examples/$$e || exit 1; \
	done

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
