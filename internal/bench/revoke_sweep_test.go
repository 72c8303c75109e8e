package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The membership sweep reports what a member costs the supernode every
// revocation, addition and mount moves whole. Checked here at
// test-friendly sizes; the full 10^3–10^6 sweep runs via
// `nexus-bench -exp revoke-sweep`.
func TestMembershipSweepSublinear(t *testing.T) {
	rows, err := MembershipSweep([]int{512, 4096}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Members != 512 || rows[1].Members != 4096 {
		t.Fatalf("sweep rows = %+v", rows)
	}
	if rows[0].NsPerOp == 0 || rows[1].NsPerOp == 0 {
		t.Fatalf("revocations untimed: %+v", rows)
	}

	// The member tree stores an ID per member and a count per leaf of
	// 32, at most 7 B per member (4.1 B measured), and the sealed
	// supernode at most 71 B (47.9 B measured), growing no faster than
	// the membership.
	perMember := make([]float64, len(rows))
	for i, r := range rows {
		if r.TreeBytesPerMember == 0 || r.TreeBytesPerMember > 7 {
			t.Fatalf("%d members: member tree %.1f B per member, want 1..7", r.Members, r.TreeBytesPerMember)
		}
		perMember[i] = float64(r.SupernodeBytes) / float64(r.Members)
		if perMember[i] == 0 || perMember[i] > 71 {
			t.Fatalf("%d members: sealed supernode %d B, %.1f B per member, want 1..71", r.Members, r.SupernodeBytes, perMember[i])
		}
	}
	if perMember[1] > 1.05*perMember[0] {
		t.Fatalf("sealed supernode per member grew from %.1f B at 512 members to %.1f B at 4096 — not linear", perMember[0], perMember[1])
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
	if !strings.Contains(buf.String(), "supernode") || !strings.Contains(buf.String(), "256") {
		t.Fatalf("PrintMembership output missing rows or the supernode column:\n%s", buf.String())
	}

	exp := MembershipMetrics(rows)
	m, ok := exp["tree_256_users"]
	if !ok || m.NsPerOp == 0 || m.TreeBytesPerMember == 0 || m.SupernodeBytes == 0 {
		t.Fatalf("MembershipMetrics = %+v", exp)
	}
}
