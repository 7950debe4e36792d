GO ?= go

.PHONY: build vet test race verify fmt-check lambdabench-check ci bench scaling bench-race bench-runtime bench-obs chaos lambdabench lambdabench-compare

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

## verify: the tier-1 gate — everything CI runs, in order.
verify: build vet test race

## fmt-check: fail when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

## lambdabench-check: vet and short-test the lambdabench module, which
## compiles against the internal packages but is outside ./... .
lambdabench-check:
	$(GO) -C lambdabench vet ./...
	$(GO) -C lambdabench test -short ./...

## ci: what .github/workflows/ci.yml runs — the tier-1 gate, formatting, and
## the lambdabench module's vet and short tests.
ci: fmt-check verify lambdabench-check

## bench: regenerate every paper table & figure (one iteration each).
bench:
	$(GO) test -bench=. -benchtime=1x ./...

## scaling: the E13 parallel-evaluation scaling study.
scaling:
	$(GO) run ./cmd/benchrunner -exp scaling

## bench-race: the E14 racing-vs-full evaluation study; refreshes BENCH_race.json.
bench-race:
	$(GO) run ./cmd/benchrunner -exp race -race-json BENCH_race.json

## bench-runtime: the E15 shared-runtime reuse study; refreshes BENCH_runtime.json.
bench-runtime:
	$(GO) run ./cmd/benchrunner -exp runtime -runtime-json BENCH_runtime.json

## bench-obs: the E17 observability-overhead study (telemetry dark vs live on
## the E16 thousand-job stream); refreshes BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/benchrunner -exp obsoverhead -obs-json BENCH_obs.json

## lambdabench: the end-to-end benchmark (lambdabench/README.md), every
## workload at one seed; each report goes to $(OUT)/<workload>-seed<N>.json.
SEED ?= 1
OUT ?= .bench_build/reports
lambdabench:
	bash lambdabench/run.sh -workload all -seed $(SEED) -json $(OUT)

## lambdabench-compare: compare two directories of lambdabench reports,
## e.g. make lambdabench-compare BASE=base/ HEAD=head/
lambdabench-compare:
	bash lambdabench/run.sh -compare $(BASE) $(HEAD)

## chaos: the crash-recovery suite under the race detector — kill/resume at
## every checkpoint boundary, torn-write fallback, daemon drain/re-adopt.
chaos:
	$(GO) test -race -run 'Chaos|KillResume|Checkpoint|Resume|Kill|Torn|Drain|Readopt|Daemon|Panic' \
		./internal/runstate/ ./internal/faults/ ./internal/core/tuner/ \
		./internal/bench/ ./internal/service/ ./cmd/lambdatune/ ./cmd/lambdatuned/ .
