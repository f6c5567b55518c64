# Convenience targets for the CCP reproduction. Everything is plain
# `go build`/`go test`; the Makefile just names the common workflows.

GO ?= go

.PHONY: all build test test-short lines bench bench-smoke bench-compare bench-micro benchstat test-allocs test-golden test-debugpool test-race-robust test-ha vet lint verify-programs fmt check fuzz-smoke examples experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the golden digests, a doubled experiment sweep and the whole-module
# lint tests. cmd/ipcbench's two-process Figure 2 test still runs all six
# rows at 100 samples each and checks every echo; only its latency bound is
# left out.
test-short:
	$(GO) test -short ./...

# Non-test Go lines in the tree: the number ROADMAP item 5 and CHANGES.md
# have quoted since PR 20. Counts what git tracks (`git add` a new file first).
lines:
	@git ls-files '*.go' | grep -v _test.go | grep -v testdata | xargs cat | wc -l

# The end-to-end control-loop benchmark (benchmark/README.md): every workload,
# untraced for the gated end-to-end metrics and traced for the per-layer ones,
# written to BENCH_OUT. About five minutes.
BENCH_OUT ?= bench/e2e.json
bench:
	$(GO) run ./benchmark -workload all -out $(BENCH_OUT)

# Gate two `make bench` documents against BENCHMARK.json's bounds: exit 1 on
# a breach. Either side may be a comma-separated list of documents (repeat
# runs): make bench-compare BASE=a1.json,a2.json NEW=b1.json,b2.json
comma := ,
bench-compare:
	@test -n "$(BASE)" -a -n "$(NEW)" || { echo "usage: make bench-compare BASE=base.json[,..] NEW=new.json[,..]"; exit 2; }
	$(GO) run ./benchmark -compare $(BASE) $(subst $(comma), ,$(NEW))

# CI smoke of the end-to-end benchmark: two seconds of direct50k — real
# rings, the sharded runtime and the verifier under a 50k-flow table — then
# two of reinstall, where every report is answered by an Install (by
# reference after a flow's first: direct50k never sends one), then two of
# steady, the one open-loop workload, where the serve loop parks between
# reports and each reply wakes a ring, then two of churn, the one workload
# that keeps creating and closing flows. The exit status
# is the assertion (the run checks itself: every report answered, every
# decision accounted for, and any InstallErr — a refused reference included —
# fails it); shared runners jitter too much to bound a latency here.
# It also fails if the runs leave ring files behind: shmring makes them in
# /dev/shm (the temporary directory off Linux), named ccp-ring-*, and they
# have that name only inside Create.
ring_files = ls "$$(if [ "$$(uname -s)" = Linux ]; then echo /dev/shm; else echo "$${TMPDIR:-/tmp}"; fi)" | grep -c '^ccp-ring-' || true
bench-smoke:
	@before=$$($(ring_files)); \
	echo "$(GO) run ./benchmark -workload direct50k -seconds 2" && \
	$(GO) run ./benchmark -workload direct50k -seconds 2 && \
	echo "$(GO) run ./benchmark -workload reinstall -seconds 2" && \
	$(GO) run ./benchmark -workload reinstall -seconds 2 && \
	echo "$(GO) run ./benchmark -workload steady -seconds 2" && \
	$(GO) run ./benchmark -workload steady -seconds 2 && \
	echo "$(GO) run ./benchmark -workload churn -seconds 2" && \
	$(GO) run ./benchmark -workload churn -seconds 2 && \
	after=$$($(ring_files)) && \
	if [ "$$after" -gt "$$before" ]; then \
		echo "bench-smoke: ring files in the backing directory grew from $$before to $$after"; exit 1; \
	fi

# Go micro-benchmarks of every package: the codec before/after pairs
# (internal/proto RoundTrip*{Alloc,Reuse}), the event heap (internal/netsim
# BenchmarkScheduleDispatch), the fold step, rings, Install paths.
bench-micro:
	$(GO) test -bench=. -benchmem ./...

# Compares the current codec, event-queue, ring, fold, program-codec
# (BenchmarkProgramCodec: marshal, unmarshal, prefix scan), agent-dispatch,
# Install (warm, by-ref, cold, moved-init) and shipped-loop (a report and its
# decision through SocketLink and Runtime.Serve) benchmarks against the committed
# bench/baseline.txt. Requires the benchstat tool; skipped with a hint when
# it is not installed (no network access is assumed here).
benchstat:
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) test -run='^$$' -bench=. -benchmem -count=5 \
			./internal/proto ./internal/netsim ./internal/ipc/shmring ./internal/lang \
			./internal/datapath ./internal/harness > bench/current.txt && \
		$(GO) test -run='^$$' -bench='AgentDispatch|RuntimeShardedDispatch' -benchmem -count=5 \
			. >> bench/current.txt && \
		benchstat bench/baseline.txt bench/current.txt; \
	else \
		echo "benchstat not installed; skipping comparison."; \
		echo "install with: go install golang.org/x/perf/cmd/benchstat@latest"; \
	fi

# Allocation-regression tests: the hot paths (codec round trip, fold step,
# event schedule/dispatch, program validation, a report across the shard hop
# and the decision it draws) must stay at zero allocations per op, and both
# ends of a warm Install (the agent's build-and-send, the datapath's
# measure-half-known apply), a moved-Init Install and a cold one under their
# pins.
# These skip themselves under -race (alloc counts are inflated), so `check`
# runs them in a separate non-race pass.
test-allocs:
	$(GO) test -run 'TestAllocs' -count=1 \
		./internal/proto ./internal/netsim ./internal/lang ./internal/ipc/shmring \
		./internal/datapath ./internal/core ./internal/runtime

# The golden digests: TestGoldenDigests pins the SHA-256 of every fast
# experiment's output and of the stdout of the simulated examples
# (quickstart, customalg, multiflow), the proof that a change meant to leave
# the simulated control loop alone did. Both skip themselves under -short, so
# the race short suite never runs them; this lane runs them once, without
# -race. 25–35 s on two cores. Part of `check`.
test-golden:
	$(GO) test -count=1 -run TestGoldenDigests ./internal/experiments ./examples

# Robustness lane: the concurrent packages (sharded runtime — including
# TestRaceContainersAccountedExactlyOnce, the mailbox-container ownership
# stress — socket link, transports, fault injectors, datapath fail-safe, and
# the ccp-agent process itself: serve, replicate, promote, shut down)
# twice under the race detector. -count=2 defeats test caching and shakes
# out order-dependent state. Part of `check`.
test-race-robust:
	$(GO) test -race -count=2 ./internal/runtime/ ./internal/harness/ \
		./internal/ipc/ ./internal/ipc/shmring/ ./internal/bridge/ \
		./internal/faults/ ./internal/datapath/ ./internal/supervise/ \
		./cmd/ccp-agent/

# High-availability lane: the supervise package (failure detector, warm
# standby, wire replication), the harness failover path and the staleness
# watchdog's probe hysteresis (a slow agent costs one fallback cycle), snapshot aggregation across the sharded runtime
# (including a restart raced against dispatchers blocked on full mailboxes,
# and restore routing to the owning shard), the shipped binary's own failover (cmd/ccp-agent: run twice
# in-process, primary and standby, over real sockets), and the ablation-ha
# acceptance tests.
test-ha:
	$(GO) test -count=1 ./internal/supervise/
	$(GO) test -count=1 -run 'TestSlowAgentSingleFallbackCycle|TestWarmStandbyFailoverBeatsFallback|TestPumpPausesWithDeadAgent' \
		./internal/harness/
	$(GO) test -count=1 -run 'TestSnapshotIntoAggregatesShards|TestRaceShardRestartUnderBackpressure|TestRuntimeRestoreFlowRoutesToOwningShard' \
		./internal/runtime/
	$(GO) test -count=1 ./cmd/ccp-agent/
	$(GO) test -count=1 -run 'TestAblHA' ./internal/experiments/

vet:
	$(GO) vet ./...

# The repo's own invariant checker: six go/analysis-style passes
# (bufrelease, decoderalias, simdeterminism, lockorder, dslverify, unused)
# over the whole tree. `go run ./cmd/ccp-lint -json ./...` emits machine-readable
# diagnostics for CI annotation; see DESIGN.md §8 and §13 for what each pass
# enforces.
lint:
	$(GO) run ./cmd/ccp-lint ./...

# Program-verifier gate: every statically-constructed datapath program in
# the tree must pass the absint Install-gate checks (the dslverify lint
# pass), every registered algorithm's Install-time programs must verify
# clean under the datapath profile, and the pinned rejection table must
# stay refused (the corpus tests in internal/lang/absint). The datapath is
# the one place a program is verified at run time, so the agent binary must
# not link the verifier. Each half links only its own side: the datapath
# reaches its host through internal/cc alone, so its closure holds no
# simulator (tcp, netsim, nativecc), and the agent's holds neither the
# simulator's clock nor its transport (netsim, tcp).
verify-programs:
	$(GO) run ./cmd/ccp-lint -run dslverify ./...
	$(GO) test -count=1 -run 'TestRegisteredAlgorithmsVerifyClean|TestRejectionTable' \
		./internal/lang/absint
	@if $(GO) list -deps ./cmd/ccp-agent | grep -q '/internal/lang/absint$$'; then \
		echo "verify-programs: cmd/ccp-agent depends on internal/lang/absint; the datapath is the one Install gate"; \
		exit 1; \
	fi
	@if $(GO) list -deps ./internal/datapath | grep -E '/internal/(tcp|netsim|nativecc)$$'; then \
		echo "verify-programs: internal/datapath depends on the simulator (above); it reaches its host through internal/cc only"; \
		exit 1; \
	fi
	@if $(GO) list -deps ./cmd/ccp-agent | grep -E '/internal/(netsim|tcp)$$'; then \
		echo "verify-programs: cmd/ccp-agent depends on the simulator (above); it runs on internal/cc's Clock"; \
		exit 1; \
	fi

# Runtime ownership checking for pooled frames: Release poisons the payload
# and records owner stacks, so double-Release and write-after-Release panic
# with the stacks of both parties. Runs the frame-handling packages' tests
# with the checker compiled in.
test-debugpool:
	$(GO) test -tags debugpool ./internal/bufpool ./internal/proto \
		./internal/ipc ./internal/ipc/shmring ./internal/harness \
		./internal/bridge ./internal/runtime ./internal/core

# Pre-merge gate, and the one lane a contributor has to know: vet, the
# invariant analyzers, the race-enabled short test suite (cross-process IPC
# included: cmd/ipcbench's six two-process rows, about 3 s), the concurrent
# packages twice more under the race detector, the zero-alloc regression
# pass, the golden digests, the debugpool ownership lane, the high-availability lane, the
# program-verifier corpus, and a short fuzz pass over the wire-protocol
# decoders (the surface exposed to a faulty or corrupting channel). CI runs
# this and no other test job (with FUZZTIME=15s).
# Like bench-smoke, it fails if the tests leave ring backing files behind
# (the agent tests create rings for every datapath they connect).
# Each step prints its wall time and the last line the total, so where check
# time goes is on every run's log. Measured on two cores: 8m18s, of which
# `go test -race -short ./...` is 314 s, fuzz-smoke 90 s, test-race-robust
# 43 s and the golden digests 26 s; 6m01s with go test's cache warm.
check:
	@before=$$($(ring_files)); t0=$$(date +%s); \
	step() { s=$$(date +%s); echo "$$*"; "$$@" || exit 1; \
		echo "check: $$* took $$(($$(date +%s) - s)) s"; }; \
	step $(MAKE) vet && \
	step $(MAKE) lint && \
	step $(GO) test -race -short ./... && \
	step $(MAKE) test-race-robust && \
	step $(MAKE) test-allocs && \
	step $(MAKE) test-golden && \
	step $(MAKE) test-debugpool && \
	step $(MAKE) test-ha && \
	step $(MAKE) verify-programs && \
	step $(MAKE) fuzz-smoke && \
	after=$$($(ring_files)) && \
	if [ "$$after" -gt "$$before" ]; then \
		echo "check: ring files in the backing directory grew from $$before to $$after"; exit 1; \
	fi; \
	t=$$(($$(date +%s) - t0)); echo "check: total $$((t / 60))m$$((t % 60))s"

# 10-second smoke of each fuzz target (wire decoders beneath the frame check
# and the check itself, the decoder's copies
# against its scratch, frames routed to and decoded on agent shards, a warm
# standby's replication frames through promotion, program decoder halves,
# the program encoding as an identity both ways, the register VM against its
# stack reference, the program validator against
# its listing reference); `go test -fuzz` accepts one target per invocation.
# For a longer hunt, raise FUZZTIME.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshal$$' -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz='^FuzzCheck$$' -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz='^FuzzDecoderAliasing$$' -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz='^FuzzCreateRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/proto
	$(GO) test -run='^$$' -fuzz='^FuzzShardFrames$$' -fuzztime=$(FUZZTIME) ./internal/runtime
	$(GO) test -run='^$$' -fuzz='^FuzzStandbyApply$$' -fuzztime=$(FUZZTIME) ./internal/supervise
	$(GO) test -run='^$$' -fuzz='^FuzzStackVsRegister$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -run='^$$' -fuzz='^FuzzMeasurePrefix$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -run='^$$' -fuzz='^FuzzProgramRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -run='^$$' -fuzz='^FuzzValidateVsReference$$' -fuzztime=$(FUZZTIME) ./internal/lang

fmt:
	gofmt -l -w .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/customalg
	$(GO) run ./examples/multiflow
	$(GO) run ./examples/socketagent

# Regenerates every table and figure (fig5 and the low-RTT sweep take a
# few minutes each); CSV series land in results/. Figure 2 is the
# two-process measurement of cmd/ipcbench, printed as a table.
experiments:
	$(GO) run ./cmd/ccp-sim -experiment all -out results
	$(GO) run ./cmd/ipcbench

clean:
	rm -rf results
