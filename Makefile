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

# internal/hmm's training tests, which `make race` runs beside every test of
# internal/pca and internal/kmeans.
TRAIN_TESTS = Reestimate|EStep|AvgLogProb|Train|BaumWelch|Holdout|MAPPrior|Crew

all: verify

build:
	$(GO) build ./...

# internal/experiments alone runs ~75 s of full-scale replays on 2 vCPUs;
# the explicit timeout keeps the per-package default from tripping when the
# package set runs in parallel on a loaded machine. perfbench is its own
# module, so ./... never builds it: test and vet run there too, so a change
# to an internal name the benchmark calls fails here, not when it runs.
test:
	$(GO) test -timeout 30m ./...
	cd perfbench && $(GO) test ./...

# vet also fails on any file gofmt would rewrite, and when the shipped
# binary links the fault injectors, which belong to the tests.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: files need formatting:"; echo "$$unformatted"; exit 1; fi
	@if $(GO) list -deps ./cmd/adprom | grep -qx 'adprom/internal/faultinject'; then \
		echo "cmd/adprom links adprom/internal/faultinject; fault injection belongs in tests"; exit 1; fi

# The runtime package is the concurrency-critical surface; -race across the
# whole module also covers the facade's Runtime tests. tenant and ingest
# carry the fleet chaos suite, the profile lineage store and the network
# front door; retain and trace hold the bounded logs every worker records
# decisions and traces into.
# The runtime's soak and slow-sink tests (TestSessionStateBounded,
# TestSlowSinkLosesNothingThatFits) skip themselves here: the race
# detector's overhead would swamp their heap, latency and timing bounds, so
# `make test` is where they run.
# Training runs its E-step, holdout scoring and PCA products on every core:
# the second line races the training tests only, since all of internal/hmm
# under -race takes close to a minute.
race:
	$(GO) test -race ./internal/runtime/... ./internal/tenant/... ./internal/ingest/... ./internal/retain ./internal/trace .
	$(GO) test -race -run '$(TRAIN_TESTS)' ./internal/hmm
	$(GO) test -race ./internal/pca ./internal/kmeans

# A short coverage-guided smoke over the hostile-input surfaces — the profile
# codec, the ingest frame decoder, the NDJSON decoder against its
# encoding/json reference, the SQL-channel scorer (arbitrary query text
# and cardinalities), the minidb SQL parser with its integer literals
# against their fmt.Sscanf reference, and the compact trace encoding that
# retained decision traces live in (decode must return exactly the encoded
# trace for any strings, attribute kinds, float bits and span counts):
# enough to catch regressions on every verify without the cost of a long
# campaign.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 5s ./internal/profile
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNDJSON$$' -fuzztime 5s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzSQLChanObserve$$' -fuzztime 5s ./internal/sqlchan
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/minidb
	$(GO) test -run '^$$' -fuzz '^FuzzTraceCodec$$' -fuzztime 5s ./internal/trace

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
