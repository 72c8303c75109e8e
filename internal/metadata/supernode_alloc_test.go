//go:build !race

package metadata

import (
	"fmt"
	"testing"
)

// TestSupernodeDecodeAllocBudget pins what loading the supernode costs
// the allocator: decoding a 256-member body and one FindUserByKey — a
// mount's authentication — make at most 3 allocations per member. The
// user table is copied into one string and indexed by two sorted
// position slices, so nearly all of them are the key tree's.
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
	if per := allocs / members; per > 3 {
		t.Fatalf("decode + FindUserByKey: %.2f allocations per member, budget 3", per)
	}
}
