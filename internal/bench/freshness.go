package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"nexus/internal/merkle"
	"nexus/internal/uuid"
)

// FreshnessRow is one cell of the freshness-at-scale sweep: the cost of
// verifying ONE metadata load's freshness at a given namespace size
// under the Merkle-authenticated namespace (DESIGN.md §15).
type FreshnessRow struct {
	Objects int
	// NsPerOp is the time to produce, transfer-decode, and verify the
	// freshness evidence for one load.
	NsPerOp float64
	// BytesPerOp is the evidence transferred per load: one encoded
	// proof.
	BytesPerOp float64
	// StateBytes is the enclave-resident state the scheme needs: root
	// hash + epoch.
	StateBytes int64
}

// freshnessSweepSeed pins the sweep's namespace contents; the sweep is
// a pure function of (counts, runs).
const freshnessSweepSeed = 0x5eed

// merkleStateBytes is the enclave-resident commitment: a 32-byte root
// plus an 8-byte epoch.
const merkleStateBytes = merkle.HashSize + 8

// FreshnessSweep measures per-load freshness verification across
// namespace sizes (the 10^3–10^6 sweep), driving the data structures
// directly — the structural costs are a property of the scheme alone,
// independent of the network simulation. runs loads are verified per
// cell and averaged.
func FreshnessSweep(counts []int, runs int) ([]FreshnessRow, error) {
	if runs < 1 {
		runs = 1
	}
	var rows []FreshnessRow
	for _, n := range counts {
		if n < 2 {
			return nil, fmt.Errorf("bench: freshness sweep size %d too small", n)
		}
		rng := rand.New(rand.NewSource(freshnessSweepSeed ^ int64(n)))
		ids := make([]uuid.UUID, n)
		for i := range ids {
			rng.Read(ids[i][:])
		}
		row, err := sweepMerkleLoads(ids, rng, runs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// sweepMerkleLoads measures one load verification: the untrusted side
// proves the object's leaf, the proof crosses the trust boundary
// encoded, and the enclave decodes and verifies it against its 40-byte
// commitment.
func sweepMerkleLoads(ids []uuid.UUID, rng *rand.Rand, runs int) (FreshnessRow, error) {
	tree := merkle.New()
	for i, id := range ids {
		tree.Set(id, uint64(i+1))
	}
	root := tree.Root()
	var bytes int64
	start := time.Now()
	for i := 0; i < runs; i++ {
		id := ids[rng.Intn(len(ids))]
		enc := tree.Prove(id).Encode()
		bytes += int64(len(enc))
		p, err := merkle.DecodeProof(enc)
		if err != nil {
			return FreshnessRow{}, fmt.Errorf("bench: merkle sweep at n=%d: %w", len(ids), err)
		}
		if _, present, err := p.Verify(root, id); err != nil || !present {
			return FreshnessRow{}, fmt.Errorf("bench: merkle sweep at n=%d: present=%v err=%v", len(ids), present, err)
		}
	}
	elapsed := time.Since(start)
	return FreshnessRow{
		Objects:    len(ids),
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(runs),
		BytesPerOp: float64(bytes) / float64(runs),
		StateBytes: merkleStateBytes,
	}, nil
}

// PrintFreshness renders the freshness-at-scale sweep.
func PrintFreshness(w io.Writer, rows []FreshnessRow) {
	fmt.Fprintln(w, "DESIGN.md §15 — Freshness verification vs namespace size (per metadata load)")
	fmt.Fprintf(w, "%10s %12s %14s %14s\n", "objects", "time/op", "proof bytes/op", "enclave state")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %12s %14s %14s\n",
			r.Objects, fmtDur(time.Duration(r.NsPerOp)),
			fmtBytes(int64(r.BytesPerOp)), fmtBytes(r.StateBytes))
	}
	fmt.Fprintln(w)
}

// FreshnessMetrics converts sweep rows into the freshness_scale
// experiment for the JSON report. ProofBytesPerOp carries the evidence
// transfer per load (informational in the compare gate, like wrap
// counts: it moves by design when the tree geometry changes).
func FreshnessMetrics(rows []FreshnessRow) Experiment {
	exp := make(Experiment)
	for _, r := range rows {
		exp[fmt.Sprintf("merkle_%d_objects", r.Objects)] = Metric{
			NsPerOp:         r.NsPerOp,
			BytesPerOp:      r.BytesPerOp,
			ProofBytesPerOp: r.BytesPerOp,
		}
	}
	return exp
}
