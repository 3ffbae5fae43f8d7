# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short bench bench-gate bench-all bench-fault bench-store check check-fast fma-check crash-test chaos-test chaos-test-short lint lint-cold fuzz vet experiments examples train train-resume serve serve-smoke store-smoke cluster-smoke clean

all: build test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

test-short:
	go test -short ./...

# The project-specific determinism & concurrency analyzers (internal/lint):
# detmap, nowallclock, seededrand, rawgo, floatreduce, ctxhygiene,
# obsnames, goroleak, spanend, plus the interprocedural dettaint and
# errwrap. Exits nonzero on any finding; results are served from the
# .lintcache content-hash cache when the tree is unchanged. See DESIGN.md
# "Static analysis".
lint:
	go run ./cmd/oarsmt-lint -timing ./...

# Same suite with the result cache bypassed: the full typecheck-and-analyze
# cost, for timing comparisons and for validating the cache itself.
lint-cold:
	go run ./cmd/oarsmt-lint -cache=off -timing ./...

# Static checks (vet + oarsmt-lint) plus the race detector over every
# surface the worker pool reaches, plus the kernel speedup regression
# gate. The second tier runs -short so check stays minutes-scale. The
# purego line runs the numeric packages on the generic Go kernels instead
# of the amd64 assembly, and the arm64 vet checks the non-amd64 build.
check: vet lint fma-check
	GOARCH=arm64 go vet ./internal/tensor
	go test -race ./internal/parallel ./internal/tensor ./internal/mcts ./internal/serve ./internal/store ./internal/obs ./internal/errs ./internal/ckpt ./internal/fault ./internal/cluster ./client ./wire
	go test -race -short ./internal/route ./internal/baseline ./internal/rl ./internal/nn ./internal/selector ./internal/core ./internal/experiments
	go test -tags purego ./internal/tensor ./internal/nn ./internal/selector ./internal/core
	$(MAKE) chaos-test-short
	$(MAKE) bench-gate

# Fused multiply-add guard. The Go spec lets the compiler fuse x*y + z,
# which would make float results differ between architectures; every
# accumulating product is written s += F(x*y) to forbid it. This
# cross-compiles the daemon for arm64 and for amd64 v3 (both have FMA
# instructions) and fails if any oarsmt/ function contains one.
FMA_RE = FMADD|FMSUB|FNMADD|FNMSUB|VFMADD|VFMSUB|VFNM

fma-check:
	GOARCH=arm64 go build -o bin/oarsmt-serve-arm64 ./cmd/oarsmt-serve
	GOARCH=amd64 GOAMD64=v3 go build -o bin/oarsmt-serve-amd64v3 ./cmd/oarsmt-serve
	@fail=0; for b in bin/oarsmt-serve-arm64 bin/oarsmt-serve-amd64v3; do \
		hits=$$(go tool objdump -s '^oarsmt/' $$b | awk '/^TEXT /{fn=$$2} /$(FMA_RE)/{print fn ": " $$0}'); \
		if [ -n "$$hits" ]; then echo "$$b: fused multiply-add in oarsmt code:"; echo "$$hits"; fail=1; \
		else echo "$$b: no fused multiply-add in oarsmt code"; fi; \
	done; exit $$fail

# Static analysis only (no race detector): fast enough for a pre-commit
# hook.
check-fast: vet lint

# Deterministic chaos suite. First the unit layer under the race detector
# (breakers, coordinator state recovery, replication, agent backoff,
# transport partitions), then the multi-process harness: a race-built
# daemon is tortured through six scripted scenarios — worker SIGKILL
# under load, coordinator crash + ckpt restore, agent partition, slow
# shard hedging, store-segment corruption, and a flapping worker
# tripping its breaker. Fault schedules ship to the children via
# OARSMT_FAULTS, so every run is deterministic. Writes BENCH_chaos.json.
chaos-test:
	go test -race -count=1 ./internal/cluster \
		-run 'Breaker|Admission|CrashRecovery|State|Replication|Backoff'
	go test -race -count=1 ./internal/serve -run 'Replicate|Install'
	go test -race -count=1 ./client -run 'TransportFault|ProtoDowngrade'
	go test -race -count=1 ./internal/fault -run 'FormatSpec'
	go build -race -o bin/oarsmt-serve-race ./cmd/oarsmt-serve
	go build -o bin/oarsmt-chaos ./cmd/oarsmt-chaos
	bin/oarsmt-chaos -bin bin/oarsmt-serve-race -json BENCH_chaos.json

# Short chaos subset run by `make check`: one end-to-end scenario (the
# worker kill with replica fan-out) against the race-built daemon.
chaos-test-short:
	go build -race -o bin/oarsmt-serve-race ./cmd/oarsmt-serve
	go build -o bin/oarsmt-chaos ./cmd/oarsmt-chaos
	bin/oarsmt-chaos -bin bin/oarsmt-serve-race -run worker-kill

# Fault-tolerance suite under the race detector: checkpoint frame
# corruption/torn-write recovery, kill-and-resume bit-identity, injected
# selector/route/enqueue faults, serve degradation and contained panics.
crash-test:
	go test -race -count=1 ./internal/ckpt ./internal/fault \
		-run .
	go test -race -count=1 ./internal/rl -run 'Checkpoint|Resume|DetSource'
	go test -race -count=1 ./internal/core ./internal/serve \
		-run 'Fault|Degrad|Retry|Panic|Enqueue'

# Core kernel/search benchmarks, run twice: once serial (OARSMT_WORKERS=0)
# and once on the default worker pool, then folded into BENCH_tensor.json
# with before/after ns/op, speedups, and per-benchmark speedup floors.
# -count=3 lets benchjson keep the minimum of each measurement; recording
# fails if any speedup regressed below the previously recorded floor.
BENCH_PKGS = ./internal/tensor ./internal/mcts ./internal/route

bench:
	OARSMT_WORKERS=0 go test -run='^$$' -bench=. -benchmem -count=3 $(BENCH_PKGS) | tee bench_serial.txt
	go test -run='^$$' -bench=. -benchmem -count=3 $(BENCH_PKGS) | tee bench_parallel.txt
	go run ./cmd/oarsmt-benchjson -serial bench_serial.txt -parallel bench_parallel.txt -o BENCH_tensor.json
	go run ./cmd/oarsmt-bench -exp obs -obs-out BENCH_obs.json
	$(MAKE) bench-store

# Route-store latency/throughput report: cold vs warm route latency (serve)
# plus segment write, compaction and warm-open throughput (store), folded
# into BENCH_store.json through the same serial/parallel benchjson flow.
STORE_BENCH_PKGS = ./internal/store ./internal/serve

bench-store:
	OARSMT_WORKERS=0 go test -run='^$$' -bench='^BenchmarkStore' -benchmem -count=3 $(STORE_BENCH_PKGS) | tee bench_store_serial.txt
	go test -run='^$$' -bench='^BenchmarkStore' -benchmem -count=3 $(STORE_BENCH_PKGS) | tee bench_store_parallel.txt
	go run ./cmd/oarsmt-benchjson -serial bench_store_serial.txt -parallel bench_store_parallel.txt -o BENCH_store.json

# Speedup regression gate (run by `make check`): re-measure the kernel
# suite quickly and fail if any benchmark's speedup fell below the floor
# recorded in BENCH_tensor.json. Never rewrites the report.
bench-gate:
	OARSMT_WORKERS=0 go test -run='^$$' -bench=. -benchmem -benchtime=0.3s -count=2 $(BENCH_PKGS) | tee bench_serial.txt
	go test -run='^$$' -bench=. -benchmem -benchtime=0.3s -count=2 $(BENCH_PKGS) | tee bench_parallel.txt
	go run ./cmd/oarsmt-benchjson -gate -serial bench_serial.txt -parallel bench_parallel.txt -o BENCH_tensor.json

# Fault-tolerance cost guard: checkpoint save/load throughput and the
# degraded-path route latency vs the healthy baseline, folded into
# BENCH_fault.json. The "serial" column is the healthy/workerless run,
# "parallel" the default pool, same flow as `make bench`.
FAULT_BENCH_PKGS = ./internal/ckpt ./internal/core

bench-fault:
	OARSMT_WORKERS=0 go test -run='^$$' -bench='Checkpoint|Route' -benchmem $(FAULT_BENCH_PKGS) | tee bench_fault_serial.txt
	go test -run='^$$' -bench='Checkpoint|Route' -benchmem $(FAULT_BENCH_PKGS) | tee bench_fault_parallel.txt
	go run ./cmd/oarsmt-benchjson -serial bench_fault_serial.txt -parallel bench_fault_parallel.txt -o BENCH_fault.json

# Full benchmark sweep (micro-benchmarks + one bench per paper table/figure).
bench-all:
	go test -bench=. -benchmem ./...

fuzz:
	go test -fuzz=FuzzDecode -fuzztime=30s ./internal/layout/
	go test -fuzz=FuzzTextFmt -fuzztime=30s ./internal/layout/
	go test -fuzz=FuzzSegmentDecode -fuzztime=30s ./internal/store/
	go test -fuzz=FuzzAllowAnnotation -fuzztime=30s ./internal/lint/

# Regenerate every paper table and figure at CPU scale.
experiments:
	go run ./cmd/oarsmt-bench -exp all -scale small

# Run the routing daemon on the embedded model.
serve:
	go run ./cmd/oarsmt-serve

# End-to-end serving smoke test: build the daemon, start it on a free
# port, check /healthz, route a layout (twice; the repeat must hit the
# cache), then SIGTERM it and verify the graceful drain exits 0.
serve-smoke:
	go build -o bin/oarsmt-serve ./cmd/oarsmt-serve
	go run ./cmd/oarsmt-smoke -bin bin/oarsmt-serve

# End-to-end cluster smoke test: coordinator + 3 registered workers;
# verifies shard affinity (the repeat of a layout is its shard's cache
# hit), spread across workers, a SIGTERM'd worker draining with zero
# dropped requests while requests are in flight, and writes the
# throughput/latency curve from oarsmt-loadgen to BENCH_cluster.json.
cluster-smoke:
	go build -o bin/oarsmt-serve ./cmd/oarsmt-serve
	go build -o bin/oarsmt-loadgen ./cmd/oarsmt-loadgen
	go run ./cmd/oarsmt-smoke -bin bin/oarsmt-serve -cluster 3 \
		-loadgen bin/oarsmt-loadgen -bench BENCH_cluster.json

# End-to-end warm-restart smoke test: route through a store-backed daemon,
# SIGKILL it, restart it over the same -store-dir, and verify the layout is
# served from disk bit-identically with zero selector inferences.
store-smoke:
	go build -o bin/oarsmt-serve ./cmd/oarsmt-serve
	rm -rf bin/store-smoke-dir
	go run ./cmd/oarsmt-smoke -bin bin/oarsmt-serve -store-dir bin/store-smoke-dir
	rm -rf bin/store-smoke-dir

examples:
	go run ./examples/quickstart
	go run ./examples/multilayer
	go run ./examples/preferred
	go run ./examples/multinet

# Retrain the embedded selector. Crash-safe: a checkpoint lands in
# train-ckpts/ after every stage, and `make train-resume` continues a
# killed run bit-identically.
TRAIN_FLAGS = -o internal/models/selector.gob \
	-stages 16 -hv 8,12,16 -layers 2,4 -layouts 6 -alpha 1024 \
	-metrics train-metrics.csv -ckpt-dir train-ckpts

train:
	go run ./cmd/oarsmt-train $(TRAIN_FLAGS)

train-resume:
	go run ./cmd/oarsmt-train $(TRAIN_FLAGS) -resume

clean:
	rm -f test_output.txt bench_output.txt train-metrics.csv \
		bench_serial.txt bench_parallel.txt BENCH_tensor.json BENCH_obs.json \
		bench_fault_serial.txt bench_fault_parallel.txt BENCH_fault.json \
		bench_store_serial.txt bench_store_parallel.txt BENCH_store.json
	rm -rf train-ckpts bin/store-smoke-dir .lintcache
