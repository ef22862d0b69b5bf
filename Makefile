# SYN-dog reproduction — convenience targets.
GO ?= go

.PHONY: all build build-live fmt vet vet-live test race perfbench check bench bench-gate examples experiments fast-experiments ablations evasion distributed victim fuzz soak soak-short loc clean

all: build vet test

# The full pre-merge gate: static checks (gofmt, vet, and vet of the
# "live"-tagged files, as CI runs them), the test suite, the race
# detector, the benchmark harness's own checks, the seeded adversarial
# evasion matrix, the distributed detection smoke, the victim
# two-queue race, a short-budget soak of the multi-agent daemon, the
# runnable examples, and the hot-path bench-regression gate in one
# target.
check: fmt vet vet-live test race perfbench evasion distributed victim soak-short examples bench-gate

build:
	$(GO) build ./...

# The AF_PACKET live-capture leg is gated behind the "live" build tag
# (linux only); this compiles it so the tagged files cannot rot.
build-live:
	$(GO) build -tags live ./...

# Formatting gate: fails listing every file gofmt would rewrite.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

# Vet with the "live" build tag, so the AF_PACKET files are checked too.
vet-live:
	$(GO) vet -tags live ./...

test:
	$(GO) test ./...

# Full suite under the race detector: exercises the experiment worker
# pool, the parallel fleet trials, the syndogd replay/handler locking,
# and the source tracker's lock under concurrent ChanSource feeds.
race:
	$(GO) test -race ./...

# perfbench/ is its own module (it replaces repro with ../), so the
# root vet and test never compile it; this builds and tests it against
# the working tree's packages.
perfbench:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# Record the outputs the repository ships with.
record:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Root benchmark suite, 6 samples per benchmark, distilled into the
# committed BENCH_pr13.json baseline (median ns/op, B/op, allocs/op
# per benchmark) so perf changes diff against a recorded trajectory.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count=6 . | tee BENCH_pr13.raw
	$(GO) run ./cmd/benchjson -o BENCH_pr13.json < BENCH_pr13.raw
	rm -f BENCH_pr13.raw

# Enforced regression gate over the hot-path benchmarks: rerun them
# (medians of GATECOUNT samples) and diff against the committed
# baseline via benchjson -baseline. Fails on a >GATETOL ns/op slowdown
# or any allocs/op growth on the gated set; other benchmarks are
# reported informationally. Raise GATETOL on noisy shared hardware.
GATECOUNT ?= 3
GATETOL ?= 0.10
GATEHOT ?= Ingest|BatchIngest|SweepFastPath|RunCellFastPath|Fusion|FrameParse|TwoQueueAccept|CaptureSource|TraceGeneration|SourceTrack
bench-gate:
	$(GO) test -run '^$$' -bench '$(GATEHOT)' -benchmem -count=$(GATECOUNT) . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_pr13.json -tolerance $(GATETOL) -hot '$(GATEHOT)'

# Benchmarks across every package, one sample each (no JSON).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Every runnable example end to end (~16 s); each exits non-zero on
# failure.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/leafrouter
	$(GO) run ./examples/tuning
	$(GO) run ./examples/lastmile
	$(GO) run ./examples/ddoscampaign

# Paper-fidelity reproduction of every table and figure (minutes).
experiments:
	$(GO) run ./cmd/experiment -run all

# Quick smoke pass over the same artifacts (seconds).
fast-experiments:
	$(GO) run ./cmd/experiment -run all -fast

ablations:
	$(GO) run ./cmd/experiment -run ablations

# Seeded, deterministic adversarial evasion matrix (seconds): the
# closed detect → attribute → mitigate loop under theory-guided
# attacks. Same seed, byte-identical table.
evasion:
	$(GO) run ./cmd/experiment -run evasion -fast

# Distributed detection smoke (seconds): a flood split across four
# sites at half each site's local floor, invisible to every local
# detector, recovered by the fusion coordinator from censored summary
# streams. Seeded and deterministic.
distributed:
	$(GO) run ./cmd/experiment -run distributed -fast

# Victim two-queue race (seconds): the same flood fed to the detector
# and to a real SYN-queue/accept-queue victim kernel, asserting the
# alarm precedes the first legitimate connection failure. Seeded and
# deterministic.
victim:
	$(GO) run ./cmd/experiment -run victim -fast

# Multi-agent daemon soak under the race detector: hours of
# operational churn (checkpoint, kill, resume, live reload) compressed
# into SOAKTIME, asserting byte-identical final state for agents no
# reload touched. `make soak` for the full budget; soak-short is the
# seconds-scale version `make check` runs.
SOAKTIME ?= 60s
soak:
	$(GO) test -race ./internal/daemon/ -run TestSoakChurn -soak $(SOAKTIME) -v

soak-short:
	$(GO) test -race ./internal/daemon/ -run TestSoakChurn -soak 5s

# Non-test Go lines (code, comments and blank lines) of the files git
# tracks or would track that exist in the working tree (a tracked file
# deleted but not yet staged is not counted), counted twice: the
# program outside perfbench/, then the perfbench harness, its own
# module.
LOCFILES = git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | while read -r f; do test -f "$$f" && echo "$$f"; done
loc:
	@$(LOCFILES) | grep -v '^perfbench/' | xargs cat | wc -l | xargs printf 'program (outside perfbench/): %s\n'
	@$(LOCFILES) | grep '^perfbench/' | xargs cat | wc -l | xargs printf 'perfbench/: %s\n'

# 8 seconds per fuzz target; extend FUZZTIME for deeper runs.
FUZZTIME ?= 8s
fuzz:
	$(GO) test ./internal/packet -fuzz '^FuzzClassify$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/packet -fuzz '^FuzzSegmentUnmarshal$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -fuzz '^FuzzAggregate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pcapng -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pcapng -fuzz '^FuzzReaderStreaming$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pcapng -fuzz '^FuzzReaderMatchesReference$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sourcetrack -fuzz '^FuzzKeyedSnapshotRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flood -fuzz '^FuzzPulsingCountsMatchRecords$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -fuzz '^FuzzBatchMatchesRecordPath$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -fuzz '^FuzzScanMatchesValidate$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -fuzz '^FuzzFrameParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -fuzz '^FuzzEmitterMatchesStableSort$$' -fuzztime $(FUZZTIME)

clean:
	$(GO) clean ./...
	rm -f syndog syndogd tracegen floodgen experiment syndogfleet
