package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"nexus/internal/backend"
	"nexus/internal/freshtree"
	"nexus/internal/merkle"
	"nexus/internal/uuid"
	"nexus/internal/vfs"
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
	// UpdateBytesPerEpoch is what one drain that changes one leaf moves
	// to and from the store's two freshness objects — the root with its
	// delta trailer, read and re-put every epoch, and the checkpoint,
	// amortised over whole checkpoint cycles (DESIGN.md §15.3).
	UpdateBytesPerEpoch float64
	// EpochsPerCheckpoint is the length of one such cycle.
	EpochsPerCheckpoint float64
	// CheckpointBytes is the size of one checkpoint: the whole encoded
	// tree, which the layout before this one uploaded every epoch.
	CheckpointBytes int64
}

// freshnessSweepSeed pins the sweep's namespace contents; the sweep is
// a pure function of (counts, runs).
const freshnessSweepSeed = 0x5eed

// merkleStateBytes is the enclave-resident commitment: a 32-byte root
// plus an 8-byte epoch.
const merkleStateBytes = merkle.HashSize + 8

// FreshnessSweep measures per-load freshness verification, and what an
// update epoch moves to and from the store, across namespace sizes (the
// 10^2–10^6 sweep), driving the data structures and the untrusted proof
// store directly — the structural costs are a property of the scheme
// alone, independent of the network simulation. runs loads are verified
// per cell and averaged.
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
		if err := sweepMerkleUpdates(&row, ids, rng); err != nil {
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

// freshnessBytes counts what crosses the store boundary under the proof
// store, both directions. In the sweep nothing but the two freshness
// objects is ever read or written there.
type freshnessBytes struct {
	freshtree.ObjectStore
	moved, checkpoints, lastCheckpoint int64
}

func (c *freshnessBytes) GetVersioned(name string) ([]byte, uint64, error) {
	data, v, err := c.ObjectStore.GetVersioned(name)
	c.moved += int64(len(data))
	return data, v, err
}

func (c *freshnessBytes) PutVersioned(name string, data []byte) (uint64, error) {
	c.moved += int64(len(data))
	if name == freshtree.TreeObjectName {
		c.checkpoints++
		c.lastCheckpoint = int64(len(data))
	}
	return c.ObjectStore.PutVersioned(name, data)
}

// sealedRootSize is the length of the enclave's sealed root blob
// (metadata.Seal of a 41-byte body), for which the sweep puts a stand-in.
const sealedRootSize = 158

// sweepCheckpointCycles is how many whole checkpoint cycles the update
// side averages over.
const sweepCheckpointCycles = 4

// sweepMerkleUpdates measures the update side: the production proof
// store (freshtree.New) over a memory store, driven the way the
// enclave drives it — read the root, stage a batch, put the root. After
// one batch that fills the tree, one-leaf batches run to the first
// checkpoint, and the account covers the sweepCheckpointCycles whole
// cycles after it: the delta growing from one entry, then the checkpoint
// that ends it.
func sweepMerkleUpdates(row *FreshnessRow, ids []uuid.UUID, rng *rand.Rand) error {
	counted := &freshnessBytes{ObjectStore: vfs.NewVersionedStore(backend.NewMemStore())}
	store := freshtree.New(counted)
	sealed := make([]byte, sealedRootSize)
	epoch := uint64(0)
	drain := func(batch []merkle.LeafUpdate) error {
		if _, _, err := store.GetVersioned(freshtree.RootObjectName); err != nil && !errors.Is(err, backend.ErrNotExist) {
			return err
		}
		if _, err := store.FreshnessUpdate(epoch, batch); err != nil {
			return err
		}
		epoch++
		_, err := store.PutVersioned(freshtree.RootObjectName, sealed)
		return err
	}
	untilCheckpoint := func(n int64) error {
		for counted.checkpoints < n {
			if err := drain([]merkle.LeafUpdate{{ID: ids[rng.Intn(len(ids))], Version: epoch + 1}}); err != nil {
				return fmt.Errorf("bench: merkle update sweep at n=%d: %w", len(ids), err)
			}
		}
		return nil
	}

	fill := make([]merkle.LeafUpdate, len(ids))
	for i, id := range ids {
		fill[i] = merkle.LeafUpdate{ID: id, Version: 1}
	}
	if err := drain(fill); err != nil {
		return fmt.Errorf("bench: merkle update sweep at n=%d: %w", len(ids), err)
	}
	if err := untilCheckpoint(1); err != nil {
		return err
	}
	first, startEpoch, startMoved := counted.checkpoints, epoch, counted.moved
	if err := untilCheckpoint(first + sweepCheckpointCycles); err != nil {
		return err
	}
	epochs := float64(epoch - startEpoch)
	row.UpdateBytesPerEpoch = float64(counted.moved-startMoved) / epochs
	row.EpochsPerCheckpoint = epochs / sweepCheckpointCycles
	row.CheckpointBytes = counted.lastCheckpoint
	return nil
}

// PrintFreshness renders the freshness-at-scale sweep.
func PrintFreshness(w io.Writer, rows []FreshnessRow) {
	fmt.Fprintln(w, "DESIGN.md §15 — Freshness cost vs namespace size (per metadata load; per one-leaf update epoch)")
	fmt.Fprintf(w, "%10s %12s %14s %14s %16s %12s %12s\n", "objects", "time/op", "proof bytes/op", "enclave state",
		"update bytes/ep", "epochs/ckpt", "checkpoint")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %12s %14s %14s %16s %12.1f %12s\n",
			r.Objects, fmtDur(time.Duration(r.NsPerOp)),
			fmtBytes(int64(r.BytesPerOp)), fmtBytes(r.StateBytes),
			fmtBytes(int64(r.UpdateBytesPerEpoch)), r.EpochsPerCheckpoint, fmtBytes(r.CheckpointBytes))
	}
	fmt.Fprintln(w)
}

// FreshnessMetrics converts sweep rows into the freshness_scale
// experiment for the JSON report. ProofBytesPerOp carries the evidence
// transfer per load (informational in the compare gate: it moves by
// design when the tree geometry changes).
func FreshnessMetrics(rows []FreshnessRow) Experiment {
	exp := make(Experiment)
	for _, r := range rows {
		exp[fmt.Sprintf("merkle_%d_objects", r.Objects)] = Metric{
			NsPerOp:         r.NsPerOp,
			BytesPerOp:      r.BytesPerOp,
			ProofBytesPerOp: r.BytesPerOp,

			UpdateBytesPerEpoch: r.UpdateBytesPerEpoch,
			EpochsPerCheckpoint: r.EpochsPerCheckpoint,
		}
	}
	return exp
}
