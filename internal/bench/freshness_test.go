package bench

import (
	"strings"
	"testing"
)

// TestFreshnessSweepScaling is the O(log n) claim in miniature: proof
// size grows by a few steps and enclave state not at all while the
// namespace grows 16×.
func TestFreshnessSweepScaling(t *testing.T) {
	rows, err := FreshnessSweep([]int{256, 4096}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Objects != 256 || rows[1].Objects != 4096 {
		t.Fatalf("got rows %+v, want one per size", rows)
	}
	small, big := rows[0], rows[1]

	// Enclave state is the 40-byte commitment at every size.
	if small.StateBytes != merkleStateBytes || big.StateBytes != merkleStateBytes {
		t.Fatalf("state bytes %d/%d, want constant %d", small.StateBytes, big.StateBytes, merkleStateBytes)
	}
	// Evidence per load: a 16× larger namespace costs ~4 more proof
	// steps, far below what a full uuid→version listing would.
	if big.BytesPerOp > 2*small.BytesPerOp {
		t.Fatalf("proof bytes/op %v → %v grew faster than logarithmic", small.BytesPerOp, big.BytesPerOp)
	}
	if listing := float64(4096 * (16 + 8)); big.BytesPerOp >= listing/16 {
		t.Fatalf("proof (%v B) is not small against a %v B version listing at 4096 objects", big.BytesPerOp, listing)
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
	if m.NsPerOp <= 0 || m.ProofBytesPerOp <= 0 {
		t.Fatalf("metric has empty figures: %+v", m)
	}
	var sb strings.Builder
	PrintFreshness(&sb, rows)
	for _, want := range []string{"objects", "proof bytes/op", "enclave state"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("printed table missing %q:\n%s", want, sb.String())
		}
	}
}
