# Tier-1 verification plus the static, race, and fuzz checks added with the
# concurrent runtime and the profile codec. `make verify` is the pre-merge
# gate.

GO ?= go

.PHONY: all build test vet race fuzz verify bench bench-smoke serve-demo

# The microbenches gated by bench-smoke; keep in sync with the names in
# internal/hmm/bench_test.go, internal/shed/bench_test.go,
# internal/tenant/tenant_test.go, internal/ingest/frame_test.go (frame
# decode, NDJSON decode and NDJSON encode) and
# internal/sqlchan/sqlchan_test.go, and with bench-smoke's -filter below.
SCORER_BENCHES = BenchmarkScorerLogProb|BenchmarkStreamPush
SMOKE_BENCHES = $(SCORER_BENCHES)|BenchmarkShedDecide|BenchmarkTenantRoute|BenchmarkIngestDecode|BenchmarkIngestDecodeNDJSON|BenchmarkIngestEncodeNDJSON|BenchmarkSQLChanObserve

all: verify

build:
	$(GO) build ./...

# internal/experiments alone runs ~4 minutes of full-scale replays; the
# explicit timeout keeps the per-package default from tripping when the
# package set runs in parallel on a loaded machine.
test:
	$(GO) test -timeout 30m ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: files need formatting:"; echo "$$unformatted"; exit 1; fi

# The runtime package is the concurrency-critical surface; -race across the
# whole module also covers the facade's Runtime tests. tenant and ingest
# carry the fleet chaos suite and the network front door.
race:
	$(GO) test -race ./internal/runtime/... ./internal/lifecycle/... ./internal/tenant/... ./internal/ingest/... .

# A short coverage-guided smoke over the hostile-input surfaces — the profile
# codec, the ingest frame decoder, the NDJSON decoder against its
# encoding/json reference, and the SQL-channel scorer (arbitrary query text
# and cardinalities): enough to catch regressions on every verify without
# the cost of a long campaign.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNDJSON$$' -fuzztime 5s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzSQLChanObserve$$' -fuzztime 5s ./internal/sqlchan

verify: build test vet race fuzz

# bench writes the human-readable log to BENCH_runtime.txt and a
# machine-readable report (name, ns/op, allocs/op, throughput and latency-
# percentile metrics) to BENCH_runtime.json; CI archives both as artifacts.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRuntimeThroughput|BenchmarkInstrumentationOverhead|BenchmarkTracingOverhead' -benchmem -benchtime 3x . > BENCH_runtime.txt
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/hmm >> BENCH_runtime.txt
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/shed >> BENCH_runtime.txt
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/tenant >> BENCH_runtime.txt
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/ingest >> BENCH_runtime.txt
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/sqlchan >> BENCH_runtime.txt
	cat BENCH_runtime.txt
	$(GO) run ./cmd/benchjson -o BENCH_runtime.json < BENCH_runtime.txt

# bench-smoke is the CI regression gate: rerun only the SMOKE_BENCHES
# microbenches (hmm scorer, shed admission, tenant routing, both ingest
# codecs, SQL channel) and fail when any of them is >20% slower (min-of-3
# ns/op) than the committed BENCH_runtime.json baseline. Cheap enough to run
# on every push; `make bench` refreshes the baseline after an intentional
# change. The second step prices decision tracing end to end on the 64-stream
# runtime replay and fails when its min-of-3 throughput cost exceeds the 5%
# acceptance budget (or the bench itself regresses >20% ns/op vs baseline).
bench-smoke:
	$(GO) test -run '^$$' -bench '$(SMOKE_BENCHES)' -count 3 ./internal/hmm ./internal/shed ./internal/tenant ./internal/ingest ./internal/sqlchan | \
		$(GO) run ./cmd/benchjson -baseline BENCH_runtime.json -tolerance 0.20 -filter 'ScorerLogProb|StreamPush|ShedDecide|TenantRoute|IngestDecode|IngestDecodeNDJSON|IngestEncodeNDJSON|SQLChanObserve'
	$(GO) test -run '^$$' -bench 'BenchmarkTracingOverhead' -benchtime 1x -count 3 . | \
		$(GO) run ./cmd/benchjson -baseline BENCH_runtime.json -tolerance 0.20 -filter 'TracingOverhead' -metric-max 'TracingOverhead:overhead_pct=5'

serve-demo:
	$(GO) run ./cmd/adprom serve -app apph -streams 64 -workers 4
