GO ?= go

.PHONY: build vet test race verify fmt-check lambdabench-check ci bench scaling chaos fuzz lambdabench lambdabench-compare

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

## bench: regenerate every paper table & figure (BenchmarkPaper/<name>, one
## iteration each).
bench:
	$(GO) test -bench=. -benchtime=1x ./...

## scaling: the E13 parallel-evaluation scaling study.
scaling:
	$(GO) run ./cmd/benchrunner -exp scaling

## fuzz: run each native fuzz target for $(FUZZTIME); go test ./... only
## replays their seed corpora. A failing input lands in the package's
## testdata/fuzz/ and replays from then on. A FuzzOrder input runs the
## unbounded reference DP, milliseconds each, so minimizing one new input
## under the default 60 s cap could take the whole run; it gets 5 s.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/sqlparser/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/runstate/
	$(GO) test -run '^$$' -fuzz '^FuzzWeightedSlots$$' -fuzztime $(FUZZTIME) ./internal/core/evaluator/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceSummary$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceExport$$' -fuzztime $(FUZZTIME) ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadWorkload$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzOrder$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/core/schedule/

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
## every checkpoint boundary, torn-write fallback, daemon drain/re-adopt, and
## the job journal's torn, corrupt and failed appends.
chaos:
	$(GO) test -race -run 'Chaos|KillResume|Checkpoint|Resume|Kill|Torn|Drain|Readopt|Daemon|Panic|Journal' \
		./internal/runstate/ ./internal/faults/ ./internal/core/tuner/ \
		./internal/bench/ ./internal/service/ ./cmd/lambdatune/ ./cmd/lambdatuned/ .
