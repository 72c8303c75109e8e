GO ?= go
FUZZTIME ?= 30s
CHAOS_SEEDS ?= 1 7 42

.PHONY: all build test race vet fmt alloc fuzz-smoke chaos obs bench bench-counts bench-pairs cover revoke-sweep freshness-sweep merkle vuln ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs every test under the race detector, among them each
# package's concurrent test of its locks and TestConcurrentAPISweep.
race:
	$(GO) test -race ./...

# alloc runs the allocation budgets, which are build-tagged !race
# (AllocsPerRun is meaningless under the race detector), so neither
# `make race` nor the coverage floors run them. The CI test job runs this
# goal.
alloc:
	$(GO) test -count=1 -run 'AllocBudget|AllocationFree|AllocFree|KeysOnlyInFilenode|AllocsPerOpClass' . ./internal/parallel/ ./internal/metadata/ ./internal/obs/ ./internal/freshtree/

vet:
	$(GO) vet ./...

# fmt fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .) && if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# fuzz-smoke gives each fuzz target a short budget. The checked-in seed
# corpora under */testdata/fuzz/ always run as part of `make test`; this
# goal additionally mutates for $(FUZZTIME) per target.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzGCMSIVRoundTrip -fuzztime=$(FUZZTIME) ./internal/gcmsiv/
	$(GO) test -run=^$$ -fuzz=FuzzPolyvalDot -fuzztime=$(FUZZTIME) ./internal/gcmsiv/
	$(GO) test -run=^$$ -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/afs/
	$(GO) test -run=^$$ -fuzz=FuzzRetrySchedule -fuzztime=$(FUZZTIME) ./internal/afs/
	$(GO) test -run=^$$ -fuzz=FuzzGroupTreeDecode -fuzztime=$(FUZZTIME) ./internal/groupkey/
	$(GO) test -run=^$$ -fuzz=FuzzMerkleProofDecode -fuzztime=$(FUZZTIME) ./internal/merkle/
	$(GO) test -run=^$$ -fuzz=FuzzMerkleTreeDecode -fuzztime=$(FUZZTIME) ./internal/merkle/
	$(GO) test -run=^$$ -fuzz=FuzzFreshnessFrameDecode -fuzztime=$(FUZZTIME) ./internal/freshtree/
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
# Then twenty runs of the two-client commit tests (among them a peer
# commit between two staged ones, and one between a walk's reads ahead
# and its entry), the kept-lock recall tests and every TestConcurrent*
# test (among them TestConcurrentAPISweep, the public API's sweep of the
# enclave's lock contract), whose interleavings the scheduler picks. See
# DESIGN.md §8.1, §9, §11.5, §12.4 and §12.5.
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos seed $$seed =="; \
		NEXUS_CHAOS_SEED=$$seed $(GO) test -race -run 'TestChaos|TestProperty' -count=1 ./internal/afs/ ./internal/enclave/ || exit 1; \
		NEXUS_CHAOS_SEED=$$seed $(GO) test -race -count=20 -run 'TestConcurrent|TestTwoAdapters|TestLockOrder|TestStickyLock|TestStagedUpdatePeerCommitBetween|TestWalkPrefetchDroppedOnCacheReplace' . ./internal/enclave/ ./internal/afs/ || exit 1; \
	done

# obs is the CI observability job: the registry/tracer suite, the
# cross-layer span/metric assertions, the store calls and crossings of
# each op class, the prefetch security regressions (the hints'
# generation rule among them), the unlock-as-ocall check, the per-call
# I/O meters (DESIGN.md §11.1), the
# batched-exit fault sweeps (DESIGN.md §11.5) and the single-commit write
# path's invariants (staged freshness batch, a lying store's staged
# proofs, root memo, merged overwrite, a barrier op's one commit with the
# drain; DESIGN.md §12.4, §15.2), all under
# the race detector. The allocation-free assertions live in `make alloc`
# (alloc_test.go is build-tagged !race). See DESIGN.md §11.
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'TestObservability|TestStoreCallsPerOpClass' .
	$(GO) test -race -count=1 -run 'TestWarmWalk|TestWalkPrefetch|TestRewriteChunkedToInlineFaultSweep|TestBatchedWriteFaultSweep|TestUnlockIsAnOcall|TestStagedUpdate|TestRootMemo|TestMergedOverwrite|TestBarrierSealsPendingAfterItsChange|TestRemoveOfALinkLeavesNoShortCount|TestIOMeterPerStoreCall' ./internal/enclave/
	$(GO) test -race -count=1 -run 'TestTransportFault|TestClientRPCLatency|TestLockCounters' ./internal/afs/

# bench is the CI perf gate. It runs every benchmark workload once at
# seed 1 in smoke size, untraced and traced, keeps each metric whose
# unit is `count` (store RPCs, byte ratios, transitions, flushes, ...)
# and fails on any difference from the committed bench/counts.jsonl,
# printed one metric per line. A run with a failed operation fails too.
# Left out because they vary between runs of the same seed:
# proc.allocs_per_op (GC timing), netsim.writes (core count) and
# share_revoke's two byte ratios (ASN.1 signature lengths). Needs jq.
BENCH_WORKLOADS = tree_create cold_scan file_io local_mixed share_revoke
BENCH_COUNTS ?= bench/counts.jsonl
BENCH_KEEP = .metrics | with_entries(select(.value.unit == "count")) | map_values(.value) \
	| del(.["proc.allocs_per_op"], .["netsim.writes"]) \
	| if $$w == "share_revoke" then del(.wire_bytes_per_user_byte, .stored_bytes_per_user_byte) else . end
BENCH_FLAT = "\(.workload) trace=\(.trace) \(.counts | to_entries[] | "\(.key) \(.value)")"

bench:
	$(MAKE) --no-print-directory bench-counts BENCH_COUNTS=bin/counts.jsonl
	jq -r '$(BENCH_FLAT)' bench/counts.jsonl > bin/counts.want
	jq -r '$(BENCH_FLAT)' bin/counts.jsonl | diff -u bin/counts.want -

# bench-counts rewrites bench/counts.jsonl. A change that moves a count
# commits the new file and says why (README.md, "The perf gate").
bench-counts:
	$(GO) build -o bin/benchmark ./benchmark
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	for w in $(BENCH_WORKLOADS); do for t in 0 1; do \
		./bin/benchmark -workload $$w -size smoke -seconds 0 -seed 1 -trace $$t -out "$$out" > "$$out/run.json" 2> "$$out/log" \
			|| { cat "$$out/log" "$$out/run.json" >&2; echo "bench: $$w -trace $$t failed" >&2; exit 1; }; \
		jq -c -S --arg w $$w --argjson t $$t \
			'if .failed != 0 then error("\($$w) -trace \($$t): \(.failed) failed operations") else {workload: $$w, trace: $$t, failed, counts: ($(BENCH_KEEP))} end' \
			"$$out/run.json" || exit 1; \
	done; done > "$$out/counts.jsonl" && mv "$$out/counts.jsonl" $(BENCH_COUNTS)

# bench-pairs measures the working tree against the commit BASE: PAIRS
# alternating pairs of runs per workload, SECONDS of measured time each,
# at seed 1, over BENCH_WORKLOADS. It builds BASE's benchmark in a git
# worktree under bin/, fails when two runs of one binary differ in a count
# BENCH_KEEP keeps, and writes bench/BENCH_<short-sha>.json, per workload
# and end-to-end metric each side's median, quartiles and range and how
# many pairs the working tree won, with the hash of the working tree's Go
# diff from HEAD (bench/pairs.sh). A perf change commits its file
# (README.md, "The perf gate"). Needs jq; ten 8 s pairs of the five
# workloads took 960 s on 2 vCPUs.
PAIRS ?= 10
SECONDS ?= 8

bench-pairs:
	@test -n "$(BASE)" || { echo "usage: make bench-pairs BASE=<rev> [PAIRS=10] [SECONDS=8]" >&2; exit 2; }
	sh bench/pairs.sh $(BASE) $(PAIRS) $(SECONDS) '$(BENCH_KEEP)' $(BENCH_WORKLOADS)

# vuln scans the module against the Go vulnerability database with the
# same pinned govulncheck the CI job runs. Needs network access to
# fetch the tool and the vuln DB.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...

# cover reports coverage on the packages gated by the CI floor.
cover:
	$(GO) test -coverprofile=cover.out ./internal/metadata/ ./internal/gcmsiv/ ./internal/obs/ ./internal/groupkey/ ./internal/merkle/ ./internal/freshtree/ ./internal/afs/ ./internal/enclave/ ./internal/fsapi/
	$(GO) tool cover -func=cover.out | tail -1

# merkle runs the Merkle-authenticated namespace's full verification
# surface: the tree/proof unit and property tests, the untrusted proof
# service (internal/freshtree), the seeded
# enclave-vs-namespace-model stream, and the adversarial rollback/fork
# suite (internal/enclave/rollback_test.go) with the replay tests of
# property F1 (internal/enclave/widening_test.go), all under the race
# detector.
# Reproduce a property failure with NEXUS_MERKLE_SEED=<seed>. See
# DESIGN.md §15.
merkle:
	$(GO) test -race -count=1 ./internal/merkle/
	$(GO) test -race -count=1 ./internal/freshtree/
	$(GO) test -race -count=1 -run 'TestMerkle|TestRollback|TestFork|TestProofTampering|TestRoot|TestPropertyMerkle|TestReplayed|TestHidden|TestWidening|TestAdmission' ./internal/enclave/

# freshness-sweep reproduces the DESIGN.md §15 freshness-at-scale sweep
# (10^3–10^6 objects): per-load Merkle proof verification (O(log n)
# evidence, 40-byte enclave state) and, on the update side, the bytes a
# one-leaf epoch moves to and from the store with checkpoints amortised
# (O(√n), §15.3) and the epochs per checkpoint; it writes the rows into
# the JSON report (proof_bytes_per_op, update_bytes_per_epoch and
# epochs_per_checkpoint).
freshness-sweep:
	$(GO) run ./cmd/nexus-bench -exp freshness -json \
		-objects 1000,10000,100000,1000000

# revoke-sweep reproduces the §VII-E membership sweep (10^2–10^6 users):
# the time to revoke one member, the encoded member list per member and,
# up to the 64K user cap, the sealed supernode every revocation moves,
# written into the JSON report (ns_per_op, tree_bytes_per_member,
# supernode_bytes).
revoke-sweep:
	$(GO) run ./cmd/nexus-bench -exp revoke-sweep -json \
		-members 100,1000,10000,100000,1000000

ci: build vet fmt race alloc chaos obs

clean:
	$(GO) clean ./...
