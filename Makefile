GO ?= go
FUZZTIME ?= 30s
CHAOS_SEEDS ?= 1 7 42

.PHONY: all build test race vet lint fuzz-smoke chaos obs bench bench-baseline cover revoke-sweep freshness-sweep merkle vuln ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the repo-specific static analyzer (cmd/nexus-lint) and
# exits non-zero on any finding; see DESIGN.md §8 for the rule set and
# the //lint:ignore suppression syntax.
lint:
	$(GO) run ./cmd/nexus-lint ./...

# fuzz-smoke gives each fuzz target a short budget. The checked-in seed
# corpora under */testdata/fuzz/ always run as part of `make test`; this
# goal additionally mutates for $(FUZZTIME) per target.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzGCMSIVRoundTrip -fuzztime=$(FUZZTIME) ./internal/gcmsiv/
	$(GO) test -run=^$$ -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/afs/
	$(GO) test -run=^$$ -fuzz=FuzzRetrySchedule -fuzztime=$(FUZZTIME) ./internal/afs/
	$(GO) test -run=^$$ -fuzz=FuzzGroupTreeDecode -fuzztime=$(FUZZTIME) ./internal/groupkey/
	$(GO) test -run=^$$ -fuzz=FuzzMerkleProofDecode -fuzztime=$(FUZZTIME) ./internal/merkle/
	$(GO) test -run=^$$ -fuzz=FuzzMerkleTreeDecode -fuzztime=$(FUZZTIME) ./internal/merkle/
	$(GO) test -run=^$$ -fuzz=FuzzFreshnessFrameDecode -fuzztime=$(FUZZTIME) ./internal/vfs/
	$(GO) test -run=^$$ -fuzz=FuzzDirnodeBodyDecode -fuzztime=$(FUZZTIME) ./internal/metadata/
	$(GO) test -run=^$$ -fuzz=FuzzFilenodeBodyDecode -fuzztime=$(FUZZTIME) ./internal/metadata/
	$(GO) test -run=^$$ -fuzz=FuzzSupernodeBodyDecode -fuzztime=$(FUZZTIME) ./internal/metadata/
	$(GO) test -run=^$$ -fuzz=FuzzExchangeDecode -fuzztime=$(FUZZTIME) ./internal/enclave/

# chaos runs the seeded fault-injection suites under the race detector,
# once per seed in CHAOS_SEEDS: the AFS transport suite
# (internal/afs/chaos_test.go plus the disconnect property tests), the
# enclave write-back crash-consistency suite
# (internal/enclave/writeback_test.go) and the key-leak property
# (internal/enclave/keyleak_test.go, DESIGN.md §6). Each seed is
# an exact replay: the fault schedule is a pure function of the seed.
# Then twenty runs of the two-client commit tests, whose interleavings
# the scheduler picks. See DESIGN.md §9, §12.4 and §12.5.
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos seed $$seed =="; \
		NEXUS_CHAOS_SEED=$$seed $(GO) test -race -run 'TestChaos|TestProperty' -count=1 ./internal/afs/ ./internal/enclave/ || exit 1; \
		NEXUS_CHAOS_SEED=$$seed $(GO) test -race -count=20 -run 'TestConcurrent|TestTwoAdapters|TestLockOrder' . ./internal/enclave/ || exit 1; \
	done

# obs mirrors the CI observability job: the registry/tracer suite, the
# cross-layer span/metric assertions, and the warm-walk crossing counts,
# prefetch security regressions and batched-ocall fault sweep (DESIGN.md
# §11.5), all under the race detector. The allocation-free assertions
# live in `make test` (alloc_test.go is build-tagged !race). See
# DESIGN.md §11.
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'TestObservability' .
	$(GO) test -race -count=1 -run 'TestWarmWalk|TestWalkPrefetch|TestRewriteChunkedToInlineFaultSweep' ./internal/enclave/
	$(GO) test -race -count=1 -run 'TestTransportFault|TestClientRPCLatency' ./internal/afs/

# bench mirrors the CI perf gate: rerun the fast file-I/O and
# chunk-crypto experiments under GOMAXPROCS=4 (so the report's cpus
# stamp matches the committed multi-core baseline), write
# BENCH_<rev>.json, and diff it against the baseline with the gated
# metrics (ns/op, allocs/op, MB/s) plus the w4-speedup check. On a
# machine with fewer than 4 physical cores the four workers time-slice
# and no real scaling is possible — disable that one check with
# `make bench MIN_SPEEDUP=0`.
MIN_SPEEDUP ?= 1.5
bench:
	$(GO) build -o bin/ ./cmd/nexus-bench ./cmd/nexus-benchdiff
	GOMAXPROCS=4 ./bin/nexus-bench -exp fileio,crypto -scale 1024 -crypto-bytes 16777216 -json
	./bin/nexus-benchdiff -baseline bench/baseline.json -current BENCH_$$(git rev-parse --short HEAD).json \
		-min-speedup-w4 $(MIN_SPEEDUP)

# bench-baseline refreshes the committed baseline after an intentional
# performance change (see README.md before running this). Run it on a
# machine with >= 4 physical cores: the baseline's MB/s columns gate CI.
bench-baseline:
	GOMAXPROCS=4 $(GO) run ./cmd/nexus-bench -exp fileio,crypto -scale 1024 -crypto-bytes 16777216 \
		-json -out bench/baseline.json

# vuln scans the module against the Go vulnerability database with the
# same pinned govulncheck the CI job runs. Needs network access to
# fetch the tool and the vuln DB.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...

# cover reports coverage on the packages gated by the CI floor.
cover:
	$(GO) test -coverprofile=cover.out ./internal/metadata/ ./internal/gcmsiv/ ./internal/obs/ ./internal/groupkey/
	$(GO) tool cover -func=cover.out | tail -1

# merkle runs the Merkle-authenticated namespace's full verification
# surface: the tree/proof unit and property tests, the seeded
# enclave-vs-namespace-model stream, and the adversarial rollback/fork
# suite (internal/enclave/rollback_test.go), all under the race detector.
# Reproduce a property failure with NEXUS_MERKLE_SEED=<seed>. See
# DESIGN.md §15.
merkle:
	$(GO) test -race -count=1 ./internal/merkle/
	$(GO) test -race -count=1 -run 'TestFreshnessStore' ./internal/vfs/
	$(GO) test -race -count=1 -run 'TestMerkle|TestRollback|TestFork|TestProofTampering|TestRoot|TestPropertyMerkle' ./internal/enclave/

# freshness-sweep reproduces the DESIGN.md §15 freshness-at-scale sweep
# (10^3–10^6 objects): per-load Merkle proof verification (O(log n)
# evidence, 40-byte enclave state) and, on the update side, the bytes a
# one-leaf epoch moves to and from the store with checkpoints amortised
# (O(√n), §15.3) and the epochs per checkpoint; it writes the rows into
# the JSON report for nexus-benchdiff (informational proof_bytes/op,
# update_bytes_per_epoch and epochs_per_checkpoint columns).
freshness-sweep:
	$(GO) run ./cmd/nexus-bench -exp freshness -json \
		-objects 1000,10000,100000,1000000

# revoke-sweep reproduces the §VII-E membership sweep (10^3–10^6 users):
# the subgroup key tree's O(log n) wraps per revocation (a flat group key
# costs n−1 by construction), written into the JSON report for
# nexus-benchdiff (informational wraps/op column).
revoke-sweep:
	$(GO) run ./cmd/nexus-bench -exp revoke-sweep -json \
		-members 1000,10000,100000,1000000

ci: build vet lint race chaos obs

clean:
	$(GO) clean ./...
