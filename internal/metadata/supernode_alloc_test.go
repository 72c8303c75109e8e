//go:build !race

package metadata

import (
	"fmt"
	"testing"
)

// TestSupernodeDecodeAllocBudget pins what loading the supernode costs
// the allocator: decoding a 256-member body and one FindUserByKey — a
// mount's authentication — make at most 0.2 allocations per member (0.07
// measured). The user table is copied into one string and indexed by two
// sorted position slices, and the key tree's member IDs share one slice
// and one map, so they are a handful, not one or more per member.
func TestSupernodeDecodeAllocBudget(t *testing.T) {
	const members = 256
	s, err := NewSupernode("owen", syntheticKey(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < members; i++ {
		if _, err := s.AddUser(fmt.Sprintf("user%03d", i), syntheticKey(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	body, key := s.EncodeBody(), syntheticKey(members/2)
	allocs := testing.AllocsPerRun(20, func() {
		got, err := DecodeSupernodeBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := got.FindUserByKey(key); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d members: %.0f allocations (%.2f per member)", members, allocs, allocs/members)
	if per := allocs / members; per > 0.2 {
		t.Fatalf("decode + FindUserByKey: %.2f allocations per member, budget 0.2", per)
	}
}
