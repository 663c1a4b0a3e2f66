GO ?= go

.PHONY: all vet build test race chaos-race chaos-smoke chaos-recovery bench-smoke bench-gate serve-test serve-chaos ci

all: build

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel runner, the simulated clock and the shared observability
# recorders are the only concurrent code; run them under the race detector.
# -race also turns on checkptr, which validates the nums kernels' unsafe
# float64 views against real collective buffers in coll and core.
race:
	$(GO) test -race ./internal/bench ./internal/simtime ./internal/obs ./internal/trace ./internal/nums ./internal/coll ./internal/core

# Fault-injection and watchdog paths under the race detector: the fault
# plan is shared read-only across ranks and the watchdog fires from the
# engine while ranks block.
chaos-race:
	$(GO) test -race ./internal/fault ./internal/fabric ./internal/mpi -run 'Fault|Watchdog|Deadlock|Timeout|Noise|Stall|Loss|Degrade'

# Hot-path smoke: one pass of the simulator-throughput benchmark, the
# allocation ceilings (allocs/event on the medium world, per-op send/recv
# and park pins, per-iteration bytes of the baseline collectives), the rank
# scratch free list (best fit, async-helper isolation), and the same guard
# files under the race detector (the exact ceilings skip there; the
# correctness assertions and the scratch poisoning still run).
bench-smoke:
	$(GO) test -run xxx -bench BenchmarkSimThroughput -benchtime 1x .
	$(GO) test ./internal/bench -run 'Throughput' -count=1
	$(GO) test ./internal/simtime ./internal/mpi ./internal/coll -run 'Alloc|Scratch|UntracedP2P|RendezvousSendBufferReuse|DispatchCounter' -count=1
	$(GO) test -race ./internal/simtime ./internal/mpi ./internal/coll -run 'Alloc|Scratch|UntracedP2P|RendezvousSendBufferReuse|DispatchCounter' -count=1

# Throughput regression gate: rerun the simulator-throughput suite
# (best-of-3 per world to shed host noise) and fail if ns/event regresses
# more than 15% against the recorded BENCH_throughput.json baseline, if
# allocs/event exceeds the pinned per-world ceilings, or if virtual time
# drifts (engine behaviour change). Each world also runs in
# schedule-replay mode against its <world>-replay baseline entry: replay
# must match live virtual time and event count exactly, stay under its
# alloc ceiling, and (with wall-clock checks on) beat live events/s by
# >=5x on the medium/large worlds. CI hosts aren't comparable to the one
# that recorded the baseline, so CI sets GATE_FLAGS=-gate-skip-wallclock
# (alloc ceilings, replay exactness and virtual-time pins still enforce
# there).
bench-gate:
	$(GO) run ./cmd/pipmcoll-bench -gate $(GATE_FLAGS)

# Query API + simulation server: the scheduler (singleflight, per-client
# fairness, admission control, mid-cell abandonment) and the HTTP layer
# under the race detector, then the fixed-seed warm-cache latency smoke
# (best-of-100 warm query round trip must be sub-millisecond; gated behind
# PIPMCOLL_SMOKE so plain `go test ./...` carries no timing flake risk).
serve-test:
	$(GO) test -race ./internal/query ./internal/serve
	PIPMCOLL_SMOKE=1 $(GO) test -run TestWarmQuerySubMillisecond -count=1 ./internal/serve

# End-to-end resilience smoke: fixed-seed scenarios must survive with
# verified results (exit 0) and an unknown scenario must be refused.
chaos-smoke:
	$(GO) run ./cmd/pipmcoll-chaos -scenario flaky-fabric -op allgather
	$(GO) run ./cmd/pipmcoll-chaos -scenario mixed -op allreduce
	! $(GO) run ./cmd/pipmcoll-chaos -scenario no-such-scenario 2>/dev/null

# Rank/node-death recovery: the ULFM layer and the self-healing loop under
# the race detector, plus the three death scenarios at fixed seeds — each
# must detect, shrink, re-run, and verify on the survivors (exit 0).
chaos-recovery:
	$(GO) test -race ./internal/mpi -run 'Kill|Shrink|Agree|Revoke|NodeLeaders|DeadlockErrorFormat'
	$(GO) test -race ./internal/recover ./internal/simtime -run 'Recover|MailboxStale|MailboxDeadline'
	$(GO) test -race ./cmd/pipmcoll-chaos
	$(GO) run ./cmd/pipmcoll-chaos -scenario rank-death
	$(GO) run ./cmd/pipmcoll-chaos -scenario node-death
	$(GO) run ./cmd/pipmcoll-chaos -scenario cascading-failures

# Serving resilience: graceful drain, request deadlines, the stuck-cell
# watchdog, retry/backoff clients and serve-side chaos injection, all
# under the race detector; the cache crash-safety sweep; then the
# fixed-seed drain smoke (warm loadtest with retries achieves 100%
# goodput on a draining server, fresh work gets the typed give-up).
serve-chaos:
	$(GO) test -race ./internal/serve -run 'Drain|Deadline|Watchdog|Chaos|Goodput|Resilience' -count=1
	$(GO) test -race ./internal/client -count=1
	$(GO) test -race ./internal/bench -run 'CacheSweep|CacheCorruption' -count=1
	PIPMCOLL_CHAOS=1 $(GO) test -race -count=1 ./internal/serve -run TestLoadtestAgainstDrainingServer

# Model checking: the internal/mc suite under the race detector (DPOR
# explorer, certificates, minimizer, kill sweeps), then a bounded exhaustive
# smoke through the CLI — Barrier/Bcast/Allreduce proved schedule-independent
# on 1x4 and 2x2 worlds (the 2x2 pass sweeps every one-kill timing too), and
# the planted broken-allreduce must be convicted (exit 1) with a replayable
# certificate.
verify:
	$(GO) test -race ./internal/mc
	$(GO) run ./cmd/pipmcoll-verify -nodes 1 -ppn 4
	$(GO) run ./cmd/pipmcoll-verify -nodes 2 -ppn 2 -kills
	! $(GO) run ./cmd/pipmcoll-verify -op broken-allreduce -nodes 1 -ppn 4 -elems 2 -max-violations 1 >/dev/null

ci: vet build test race chaos-race chaos-smoke chaos-recovery verify bench-smoke bench-gate serve-test serve-chaos
