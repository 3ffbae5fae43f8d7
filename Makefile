# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short bench bench-gate bench-all check check-fast fma-check crash-test chaos-test chaos-test-short lint fuzz vet experiments examples train train-resume serve clean

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
# errwrap. Every run type-checks the module from source (~3.5 s on two
# vCPUs) and exits nonzero on any finding. See DESIGN.md "Static analysis".
lint:
	go run ./cmd/oarsmt-lint -timing ./...

# Static checks (gofmt, vet, oarsmt-lint) plus the race detector over
# every surface the worker pool reaches, plus the micro-benchmark
# regression gate. The second tier runs -short so check stays
# minutes-scale. The purego line runs the numeric packages on the generic
# Go kernels instead of the amd64 assembly, and the arm64 vet checks the
# non-amd64 build.
check: vet lint fma-check
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$unformatted" ]; then echo "not gofmt-clean:"; echo "$$unformatted"; exit 1; fi
	GOARCH=arm64 go vet ./internal/tensor
	go test -race ./internal/parallel ./internal/tensor ./internal/mcts ./internal/serve ./internal/store ./internal/obs ./internal/errs ./internal/ckpt ./internal/fault ./internal/cluster ./client ./wire ./cmd/oarsmt-serve
	go test -race -short ./internal/route ./internal/baseline ./internal/rl ./internal/nn ./internal/selector ./internal/core ./internal/experiments
	go test -tags purego ./internal/tensor ./internal/nn ./internal/selector ./internal/core
	$(MAKE) chaos-test-short
	$(MAKE) bench-gate

# Fused multiply-add guard. The Go spec lets the compiler fuse x*y + z,
# which would make float results differ between architectures; every
# accumulating product is written s += float64(x*y) to forbid it. This
# cross-compiles every cmd/ binary and the tensor test binary (whose
# reference kernels the fast ones are checked against) for arm64 and for
# amd64 v3 (both have FMA instructions) and fails if any oarsmt/ function
# contains one.
FMA_RE = FMADD|FMSUB|FNMADD|FNMSUB|VFMADD|VFMSUB|VFNM
FMA_CMDS = $(notdir $(wildcard cmd/*))

fma-check:
	@for c in $(FMA_CMDS); do \
		GOARCH=arm64 go build -o bin/$$c-arm64 ./cmd/$$c && \
		GOARCH=amd64 GOAMD64=v3 go build -o bin/$$c-amd64v3 ./cmd/$$c || exit 1; \
	done
	@GOARCH=arm64 go test -c -o bin/tensor.test-arm64 ./internal/tensor && \
		GOARCH=amd64 GOAMD64=v3 go test -c -o bin/tensor.test-amd64v3 ./internal/tensor
	@fail=0; for b in $(foreach c,$(FMA_CMDS) tensor.test,bin/$(c)-arm64 bin/$(c)-amd64v3); do \
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
# daemon is tortured through seven scripted scenarios — worker SIGKILL
# under load, coordinator crash + ckpt restore, agent partition, slow
# shard hedging, warm restart then store-segment corruption, a flapping
# worker tripping its breaker, and a worker drain under fire with a
# clean shutdown of the fleet. Fault schedules ship to the children via
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

# Short chaos subset run by `make check`: three end-to-end scenarios
# against the race-built daemon — the worker kill with replica fan-out;
# the store-backed cache serving a warm restart from disk, then
# surviving a byte flipped in a segment, then draining to exit 0; and a
# 3-worker cluster's shard affinity, spread, worker drain under fire and
# clean shutdown.
chaos-test-short:
	go build -race -o bin/oarsmt-serve-race ./cmd/oarsmt-serve
	go build -o bin/oarsmt-chaos ./cmd/oarsmt-chaos
	bin/oarsmt-chaos -bin bin/oarsmt-serve-race -run 'worker-kill|corrupt-store|drain'

# Fault-tolerance suite under the race detector: checkpoint frame
# corruption/torn-write recovery, kill-and-resume bit-identity, injected
# selector/route/enqueue faults, serve degradation and contained panics.
crash-test:
	go test -race -count=1 ./internal/ckpt ./internal/fault \
		-run .
	go test -race -count=1 ./internal/rl -run 'Checkpoint|Resume|DetSource'
	go test -race -count=1 ./internal/core ./internal/serve \
		-run 'Fault|Degrad|Retry|Panic|Enqueue'

# Micro-benchmarks: the kernel, search, store, checkpoint, routing and
# selector benchmarks in one run, folded into BENCH_micro.json: per
# benchmark the minimum ns/op over five samples, a noise band derived from
# their spread, and allocs/op, under the GOMAXPROCS and cpu they were
# taken at. Each sample comes from its own pass over the suite, a minute
# apart: samples taken back to back (-count) share one burst of host
# noise, so their spread understates the run-to-run spread. Recording
# fails if the run regresses against a record from the same machine; a
# record from another machine is replaced. A narrower run
# (make bench BENCH_PKGS=./internal/tensor) rewrites only its own entries
# and carries the others over unchanged.
BENCH_PKGS = ./internal/tensor ./internal/mcts ./internal/route \
	./internal/store ./internal/serve ./internal/ckpt ./internal/core \
	./internal/selector ./internal/baseline

bench:
	for i in 1 2 3 4 5; do go test -run='^$$' -bench=. -benchmem $(BENCH_PKGS); done | tee bench_micro.txt
	go run ./cmd/oarsmt-benchjson -o BENCH_micro.json bench_micro.txt

# Micro-benchmark regression gate (run by `make check`): re-measure the
# same set in five shorter passes and fail if a recorded benchmark is
# missing, slower than its band allows or allocates more. The passes span
# about 100 s, longer than the minute-long bursts of CPU steal seen on a
# shared 2-vCPU host, so one burst cannot slow every sample of a
# benchmark. Never rewrites the report.
bench-gate:
	for i in 1 2 3 4 5; do go test -run='^$$' -bench=. -benchmem -benchtime=0.3s $(BENCH_PKGS); done | tee bench_micro.txt
	go run ./cmd/oarsmt-benchjson -gate -o BENCH_micro.json bench_micro.txt

# Full benchmark sweep (micro-benchmarks + one bench per paper table/figure).
bench-all:
	go test -bench=. -benchmem ./...

fuzz:
	go test -fuzz=FuzzDecode -fuzztime=30s ./internal/layout/
	go test -fuzz=FuzzTextFmt -fuzztime=30s ./internal/layout/
	go test -fuzz=FuzzSegmentDecode -fuzztime=30s ./internal/store/
	go test -fuzz=FuzzAllowAnnotation -fuzztime=30s ./internal/lint/
	go test -fuzz=FuzzHeapOrder -fuzztime=30s ./internal/route/
	go test -fuzz=FuzzRetracePruned -fuzztime=30s ./internal/route/
	go test -fuzz=FuzzConvPanel -fuzztime=30s ./internal/tensor/
	go test -fuzz=FuzzTopK -fuzztime=30s ./internal/selector/
	go test -fuzz=FuzzCanonicalKey -fuzztime=30s ./internal/serve/

# Regenerate every paper table and figure at CPU scale.
experiments:
	go run ./cmd/oarsmt-bench -exp all -scale small

# Run the routing daemon on the embedded model.
serve:
	go run ./cmd/oarsmt-serve

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
	rm -f test_output.txt bench_output.txt train-metrics.csv bench_micro.txt
	rm -rf train-ckpts
