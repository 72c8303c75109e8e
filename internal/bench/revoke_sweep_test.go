package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The membership sweep is the tree's load-bearing claim: revocation wrap
// work grows O(log n), against the n−1 wraps a flat group key costs by
// construction. Checked here at test-friendly sizes; the full 10^3–10^6
// sweep runs via `nexus-bench -exp revoke-sweep`.
func TestMembershipSweepSublinear(t *testing.T) {
	rows, err := MembershipSweep([]int{512, 4096}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Members != 512 || rows[1].Members != 4096 {
		t.Fatalf("sweep rows = %+v", rows)
	}
	treeSmall, treeBig := rows[0], rows[1]
	if treeSmall.WrapsPerOp == 0 || treeBig.WrapsPerOp == 0 {
		t.Fatalf("tree rows unmetered: %+v", rows)
	}

	// 8× the members must cost far less than 8× the wraps: a fanout-8
	// tree adds about one level, so allow 2×.
	if growth := treeBig.WrapsPerOp / treeSmall.WrapsPerOp; growth > 2 {
		t.Fatalf("tree wraps grew %.2fx across 8x membership (512: %.1f, 4096: %.1f) — not sublinear",
			growth, treeSmall.WrapsPerOp, treeBig.WrapsPerOp)
	}
	if growth := treeBig.BytesPerOp / treeSmall.BytesPerOp; growth > 2 {
		t.Fatalf("tree wrap bytes grew %.2fx across 8x membership — not sublinear", growth)
	}

	// A flat group key re-wraps for every survivor: n−1 wraps/op.
	if ratio := (4096 - 1) / treeBig.WrapsPerOp; ratio < 10 {
		t.Fatalf("tree (%.1f wraps/op) not clearly below flat (4095 wraps/op) at 4096 members",
			treeBig.WrapsPerOp)
	}
}

func TestMembershipSweepModesAndErrors(t *testing.T) {
	rows, err := MembershipSweep([]int{256}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Members != 256 {
		t.Fatalf("sweep rows = %+v", rows)
	}
	if _, err := MembershipSweep([]int{2}, 1); err == nil {
		t.Fatal("degenerate size accepted")
	}

	var buf bytes.Buffer
	PrintMembership(&buf, rows)
	if !strings.Contains(buf.String(), "members−1") || !strings.Contains(buf.String(), "256") {
		t.Fatalf("PrintMembership output missing rows or the flat closed form:\n%s", buf.String())
	}

	exp := MembershipMetrics(rows)
	m, ok := exp["tree_256_users"]
	if !ok || m.WrapsPerOp == 0 || m.NsPerOp == 0 {
		t.Fatalf("MembershipMetrics = %+v", exp)
	}
}
