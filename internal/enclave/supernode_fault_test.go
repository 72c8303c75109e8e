package enclave_test

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nexus/internal/enclave"
	"nexus/internal/freshtree"
)

// TestFailedSupernodeChangeLeavesWriterAsStored kills the store at every
// store call of each supernode change — RemoveUser, AddUser and
// GrantAccess — and checks that the failed change is gone from the writer
// too: its ListUsers and UserGroup answer what a client mounted after the
// fault answers. The change is made on the copy the commit re-reads: a
// commit that fails before the supernode's put lands leaves the writer
// with the supernode it held, and one that fails after it keeps the
// change, which the store now serves (DESIGN.md §13.3). The writer used
// to keep the changed copy in either case, listing a user whose removal
// failed at the supernode's put as gone until its next re-read.
func TestFailedSupernodeChangeLeavesWriterAsStored(t *testing.T) {
	key := func() (ed25519.PublicKey, ed25519.PrivateKey) {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return pub, priv
	}
	bobPub, _ := key()
	davePub, _ := key()
	carolPub, carolPriv := key()
	carolSign := func(msg []byte) ([]byte, error) { return ed25519.Sign(carolPriv, msg), nil }
	var carolOffer []byte
	var ownerSign enclave.Signer
	for _, c := range []struct {
		name string
		op   func(e *enclave.Enclave) error
	}{
		{"RemoveUser", func(e *enclave.Enclave) error { return e.RemoveUser("bob") }},
		{"AddUser", func(e *enclave.Enclave) error { _, err := e.AddUser("dave", davePub); return err }},
		{"GrantAccess", func(e *enclave.Enclave) error {
			_, err := e.GrantAccess(carolOffer, "carol", carolPub, ownerSign)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for k := 0; ; k++ {
				v, _, _ := newCommitVolume(t)
				container, err := v.plat.CreateEnclave(rollbackImage)
				if err != nil {
					t.Fatal(err)
				}
				store := &dyingStore{FreshnessProofStore: freshtree.New(v.shared), dieAt: -1}
				e, err := enclave.New(enclave.Config{SGX: container, Store: store, IAS: v.ias})
				if err != nil {
					t.Fatal(err)
				}
				v.mount(t, e)
				if _, err := e.AddUser("bob", bobPub); err != nil {
					t.Fatal(err)
				}
				ownerSign = func(msg []byte) ([]byte, error) { return ed25519.Sign(v.priv, msg), nil }
				peer, _ := v.newEnclave(t)
				if carolOffer, err = peer.CreateExchangeOffer("carol", carolSign); err != nil {
					t.Fatal(err)
				}

				store.arm(k)
				opErr := c.op(e)
				store.disarm()
				if opErr == nil {
					if k == 0 {
						t.Fatal("a store dead from the first call did not fail the op")
					}
					t.Logf("swept a store dying at each of %d store calls", k)
					return
				}
				if !errors.Is(opErr, enclave.ErrStoreUnavailable) {
					t.Fatalf("k=%d: failed with %v, want ErrStoreUnavailable", k, opErr)
				}
				fresh, _ := v.client(t)
				if got, want := membership(t, e), membership(t, fresh); got != want {
					t.Fatalf("k=%d: after the failed %s the writer holds\n\t%s\na client mounted after it\n\t%s", k, c.name, got, want)
				}
				if k > 100 {
					t.Fatal("fault sweep did not terminate")
				}
			}
		})
	}
}

// membership renders the users e lists, each with its ID and key-tree
// leaf.
func membership(t *testing.T, e *enclave.Enclave) string {
	t.Helper()
	users, err := e.ListUsers()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, u := range users {
		leaf, err := e.UserGroup(u.Name)
		if err != nil {
			t.Fatalf("UserGroup(%q): %v", u.Name, err)
		}
		fmt.Fprintf(&b, "%s: id %d, leaf %d; ", u.Name, u.ID, leaf)
	}
	return b.String()
}
