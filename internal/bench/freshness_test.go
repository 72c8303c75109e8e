package bench

import (
	"strings"
	"testing"
)

// TestFreshnessSweepScaling is both scaling claims in miniature. Load
// side, O(log n): proof size grows by a few steps and enclave state not
// at all while the namespace grows 100×. Update side, O(change): what a
// one-leaf update epoch moves to and from the store grows like the
// square root of the namespace (the checkpoint rule's √(2·S·u)), where
// a snapshot per epoch grew with the namespace itself.
func TestFreshnessSweepScaling(t *testing.T) {
	rows, err := FreshnessSweep([]int{100, 10000}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Objects != 100 || rows[1].Objects != 10000 {
		t.Fatalf("got rows %+v, want one per size", rows)
	}
	small, big := rows[0], rows[1]

	// Enclave state is the 40-byte commitment at every size.
	if small.StateBytes != merkleStateBytes || big.StateBytes != merkleStateBytes {
		t.Fatalf("state bytes %d/%d, want constant %d", small.StateBytes, big.StateBytes, merkleStateBytes)
	}
	// Evidence per load: a 100× larger namespace costs ~7 more proof
	// steps, far below what a full uuid→version listing would.
	if big.BytesPerOp > 2*small.BytesPerOp {
		t.Fatalf("proof bytes/op %v → %v grew faster than logarithmic", small.BytesPerOp, big.BytesPerOp)
	}
	if listing := float64(10000 * (16 + 8)); big.BytesPerOp >= listing/16 {
		t.Fatalf("proof (%v B) is not small against a %v B version listing at 10000 objects", big.BytesPerOp, listing)
	}

	// Bytes per update epoch: ×100 objects is ×10 by the square root, and
	// the fixed part of a root object only pulls that down; ×12 leaves
	// room for rounding to whole cycles and nothing for linear growth.
	if small.UpdateBytesPerEpoch <= 0 || big.UpdateBytesPerEpoch > 12*small.UpdateBytesPerEpoch {
		t.Fatalf("update bytes/epoch %v → %v over 100× the objects, want at most ×12", small.UpdateBytesPerEpoch, big.UpdateBytesPerEpoch)
	}
	if big.UpdateBytesPerEpoch >= float64(big.CheckpointBytes)/8 {
		t.Fatalf("an update epoch at 10000 objects moves %v B, not small against the %d B encoded tree", big.UpdateBytesPerEpoch, big.CheckpointBytes)
	}
	if small.EpochsPerCheckpoint < 2 || big.EpochsPerCheckpoint <= small.EpochsPerCheckpoint {
		t.Fatalf("epochs per checkpoint %v → %v, want cycles that lengthen with the tree", small.EpochsPerCheckpoint, big.EpochsPerCheckpoint)
	}
}

func TestFreshnessSweepRejectsBadInput(t *testing.T) {
	if _, err := FreshnessSweep([]int{1}, 1); err == nil {
		t.Fatal("degenerate namespace size accepted")
	}
}

func TestFreshnessMetricsAndPrint(t *testing.T) {
	rows, err := FreshnessSweep([]int{64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := FreshnessMetrics(rows)["merkle_64_objects"]
	if !ok {
		t.Fatal("metric merkle_64_objects missing from experiment")
	}
	if m.NsPerOp <= 0 || m.ProofBytesPerOp <= 0 || m.UpdateBytesPerEpoch <= 0 || m.EpochsPerCheckpoint <= 0 {
		t.Fatalf("metric has empty figures: %+v", m)
	}
	var sb strings.Builder
	PrintFreshness(&sb, rows)
	for _, want := range []string{"objects", "proof bytes/op", "enclave state", "update bytes/ep", "epochs/ckpt"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("printed table missing %q:\n%s", want, sb.String())
		}
	}
}
