# PERA simulator build/test entry points.
#
# Tier-1 flow (what CI and reviewers run):
#
#     make build test race
#
# The race target is part of tier-1: the attestation pipeline is
# explicitly concurrent (pool appraisal, concurrent switch ingestion,
# sharded caches) and every regression test for it must pass under the
# race detector.

GO ?= go

.PHONY: all build test race vet test-purego bench bench-quick bench-throughput bench-batch fuzz-quick telemetry-smoke audit-smoke observe-smoke slo-smoke trace-smoke recorder-smoke fleet-smoke profile-smoke flags-smoke cover fmt clean

all: build test race vet

build:
	$(GO) build ./...

# test is unit tests + vet + the end-to-end smokes: a scrape of a live
# perasim run must expose every pipeline stage (telemetry_smoke.sh), a
# perasim-written audit ledger must verify, query, explain, and catch a
# one-byte tamper through attestctl (audit_smoke.sh), and an observed
# UC1 run must name every hop and localize a mid-run program swap
# through the collector and attestctl top/paths (observe_smoke.sh), and
# a trust-decay run with recovery disabled must leave the frozen place
# lapsed with a firing, ledger-recorded staleness alert (slo_smoke.sh),
# and one attestctl round against live attestd + appraised processes
# must merge into a single cross-process trace (trace_smoke.sh), and a
# recorder-enabled UC1 run must leave an incident bundle that localizes
# the compromised switch offline (recorder_smoke.sh), and a fleetd
# scraping three live perasim processes must merge them into one trust
# map with the seeded conflict found and a killed member marked down
# (fleet_smoke.sh), and a -profile throughput run must attribute the
# timed phase's CPU to RATS stages on /profile.json with the raw
# cpu.pprof artifact re-summarizing offline to the same hotspot
# (profile_smoke.sh), and each daemon's -h flag names and defaults must
# match the checked-in lists (flags_smoke.sh).
test: vet
	$(GO) test ./...
	$(MAKE) telemetry-smoke
	$(MAKE) audit-smoke
	$(MAKE) observe-smoke
	$(MAKE) slo-smoke
	$(MAKE) trace-smoke
	$(MAKE) recorder-smoke
	$(MAKE) fleet-smoke
	$(MAKE) profile-smoke
	$(MAKE) flags-smoke

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The Ed25519 core's portable field arithmetic: internal/ed25519batch
# uses assembly kernels on amd64, and the purego build tag selects the Go
# bodies every other architecture runs, so this keeps them tested here.
test-purego:
	$(GO) test -tags purego ./internal/ed25519batch ./internal/evidence

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Allocation-budget guard (CI tier): run the end-to-end throughput
# benchmark a few iterations and fail if allocs/op or B/op exceeds its
# checked-in budget in bench_budget.txt. See docs/PERFORMANCE.md.
bench-quick:
	GO=$(GO) sh scripts/bench_quick.sh

# Just the concurrent-appraisal families (the BENCH_throughput.json
# source); see README "Performance".
bench-throughput:
	$(GO) test -bench 'BenchmarkThroughput|BenchmarkVerifyMemo' -benchmem -run '^$$' .

# One iteration of every internal/ed25519batch benchmark, the window
# sweep behind evidence.BatchMinSigs included, so they keep compiling and
# running. For numbers, raise -benchtime (see docs/PERFORMANCE.md).
bench-batch:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/ed25519batch

# Every native fuzz target for a short fixed time: the in-band header
# parser, the PISA pipeline against its map-based reference, the two
# evidence decoders against each other, the RATS message codec, and batch
# and single verification against crypto/ed25519. Each starts from its
# checked-in seed corpus.
fuzz-quick:
	$(GO) test -run '^$$' -fuzz '^FuzzPop$$' -fuzztime 10s ./internal/pera
	$(GO) test -run '^$$' -fuzz '^FuzzProcess$$' -fuzztime 10s ./internal/pisa
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeShared$$' -fuzztime 10s ./internal/evidence
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/rats
	$(GO) test -run '^$$' -fuzz '^FuzzBatchVsStdlib$$' -fuzztime 10s ./internal/ed25519batch
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyOneVsStdlib$$' -fuzztime 10s ./internal/ed25519batch

# End-to-end observability check: run perasim with a live endpoint,
# scrape /metrics, assert the per-stage histograms are populated.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# End-to-end tamper-evidence check: perasim writes the audit ledger,
# attestctl verifies/queries/explains it, and a one-byte flip must fail
# verification at the damaged record.
audit-smoke:
	sh scripts/audit_smoke.sh

# End-to-end observatory check: perasim -observe serves the collector,
# the snapshot names every hop and localizes the program swap, and
# attestctl top/paths render the same state.
observe-smoke:
	sh scripts/observe_smoke.sh

# End-to-end trust-decay check: perasim -slo (no recovery) serves the
# watchdog, /coverage.json marks the frozen place lapsed, /alerts.json
# and attestctl coverage/alerts show the firing staleness alert, and
# the audit ledger records it and verifies.
slo-smoke:
	sh scripts/slo_smoke.sh

# End-to-end distributed-tracing check: attestd and appraised run with
# -trace over real TCP, one attestctl round propagates the trace
# context, and `attestctl trace` merges both span rings into one trace.
trace-smoke:
	sh scripts/trace_smoke.sh

# End-to-end flight-recorder check: a recorder-enabled UC1 observe run
# serves live metric history, pages the anomaly through the shared
# sinks, then — process killed — the incident bundle re-verifies and
# names the compromised switch entirely offline.
recorder-smoke:
	sh scripts/recorder_smoke.sh

# End-to-end fleet check: three perasim -slo processes with a seeded
# fresh-vs-lapsed disagreement, one fleetd scraping them, /fleet.json
# shows the merged trust map + status-conflict finding, a killed member
# goes down within two intervals, survivors keep updating, and the
# pera_fleet_* federation metrics agree.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# End-to-end continuous-profiling check: a -profile UC1 throughput run
# serves /profile.json with >= 60% of the timed phase's CPU attributed
# to stage labels (verify-stage row present), a bad query answers with
# the JSON error contract, and the downloaded cpu.pprof re-summarizes
# offline — process dead — to the same hotspot via `attestctl profile
# top -file`.
profile-smoke:
	sh scripts/profile_smoke.sh

# Flag-set check: attestd, appraised, perasim and fleetd -h must list
# the same flag names and defaults as scripts/testdata/flags/.
flags-smoke:
	sh scripts/flags_smoke.sh

# Coverage over the library packages with a floor: the build fails if
# total statement coverage regresses below COVER_FLOOR percent.
COVER_FLOOR ?= 80.0
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) ' \
		/^total:/ { total = $$3; sub("%", "", total) } \
		END { \
			printf "coverage: %s%% total (floor %.1f%%)\n", total, floor; \
			if (total + 0 < floor + 0) { print "cover: FAIL — below floor"; exit 1 } \
		}'

fmt:
	gofmt -w $$($(GO) list -f '{{.Dir}}' ./...)

clean:
	$(GO) clean ./...
