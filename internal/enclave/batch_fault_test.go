package enclave_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
	"nexus/internal/metadata"
)

// TestBatchedWriteFaultSweep kills the store at every store call of each
// write-path op class whose calls leave the enclave in batches (DESIGN.md
// §11.5) — an overwrite, a create and an append, each one SaveFile ecall,
// a remove with the drain after it, an overwrite after a pending remove,
// whose SaveFile is one commit with the drain (§12.4), a rename onto
// an existing file with the drain after it, which deletes the replaced
// file only once no directory on the store names it (§6), and the barrier
// ops that commit once with a pending remove's drain — a hardlink, SetACL,
// RemoveUser and GrantAccess — and a SetACL grant, which commits without
// the root (§15.2), and GrantAccess with nothing pending, so that kill
// points land inside every exit,
// between one call and the next. Each failure is ErrStoreUnavailable.
// Whatever the store holds then, a restarted client mounts and reads the
// old state or the new, never an integrity error — with one exception the
// batching does not touch: a file's chunks are re-encrypted into its data
// object in place (§VI-A), so a kill between the data object's put and the
// filenode's leaves a filenode that fails authentication against the new
// chunks, which is detected, never read. That holds only above
// metadata.MaxInlineSize: the 4 KiB overwrite and append, one sealed
// filenode each, are swept without the exception. Once the store is back the
// writer's retry of the failed call converges on the new state. A
// cross-directory rename is not a class: it puts the re-parented child
// before either directory, and a kill after that put leaves the source
// entry naming a child whose parent is the destination, which the walk
// refuses (the file-swap check, §6).
func TestBatchedWriteFaultSweep(t *testing.T) {
	old, next, moved := enclave.ChunkedFile('o'), enclave.ChunkedFile('n'), enclave.ChunkedFile('m')
	appended := append(bytes.Clone(old), "tail"...)
	// /a/s holds a 4 KiB file, whose content is in its filenode.
	smallOld, smallNext := enclave.InlineFile('o'), enclave.InlineFile('n')
	smallAppended := append(bytes.Clone(smallOld), "tail"...)
	// removePending leaves a remove of /a/g in the dirty set, for the
	// barrier op after it to commit with.
	removePending := func(e *enclave.Enclave) error {
		if err := e.Remove("/a/g"); err != nil && !errors.Is(err, enclave.ErrNotFound) {
			return err
		}
		return nil
	}
	bobPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	carolPub, carolPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	carolSign := func(msg []byte) ([]byte, error) { return ed25519.Sign(carolPriv, msg), nil }
	var carolOffer []byte
	var ownerSign enclave.Signer
	classes := []struct {
		name string
		path string
		want []byte // nil: the entry is gone
		was  []byte // nil: there was none
		op   func(e *enclave.Enclave) error
		// inPlace marks a rewrite of the data object the filenode names.
		inPlace bool
		// gone, when set, is a file holding moved that the op removes: a
		// restarted client finds it or not, and after the retry it is gone.
		gone string
		// check, when set, is what else a client mounted after the fault
		// must find true (retried false), and the writer and a client
		// mounted after the retry (retried true).
		check func(e *enclave.Enclave, retried bool) error
	}{
		{"overwrite", "/a/f", next, old, func(e *enclave.Enclave) error { return e.SaveFile("/a/f", next, true) }, true, "", nil},
		{"create", "/a/new", next, nil, func(e *enclave.Enclave) error { return e.SaveFile("/a/new", next, true) }, false, "", nil},
		{"append", "/a/f", appended, old, func(e *enclave.Enclave) error { return e.SaveFile("/a/f", appended, false) }, true, "", nil},
		{"overwrite of a 4 KiB file", "/a/s", smallNext, smallOld, func(e *enclave.Enclave) error {
			return e.SaveFile("/a/s", smallNext, true)
		}, false, "", nil},
		{"append to a 4 KiB file", "/a/s", smallAppended, smallOld, func(e *enclave.Enclave) error {
			return e.SaveFile("/a/s", smallAppended, false)
		}, false, "", nil},
		{"remove and drain", "/a/f", nil, old, func(e *enclave.Enclave) error {
			if err := e.Remove("/a/f"); err != nil && !errors.Is(err, enclave.ErrNotFound) {
				return err
			}
			return e.SyncMetadata()
		}, false, "", nil},
		{"overwrite after a pending remove", "/a/f", next, old, func(e *enclave.Enclave) error {
			if err := e.Remove("/a/g"); err != nil && !errors.Is(err, enclave.ErrNotFound) {
				return err
			}
			return e.SaveFile("/a/f", next, false)
		}, true, "/a/g", nil},
		{"rename onto an existing file", "/a/f", moved, old, func(e *enclave.Enclave) error {
			if err := e.Rename("/a/g", "/a/f"); err != nil && !errors.Is(err, enclave.ErrNotFound) {
				return err
			}
			return e.SyncMetadata()
		}, false, "/a/g", nil},
		// The link is made in the directory of the pending remove, so the
		// op changes a pending directory: a failed commit must leave it as
		// it was, not half linked.
		{"hardlink with a pending remove", "/a/l", old, nil, func(e *enclave.Enclave) error {
			if err := removePending(e); err != nil {
				return err
			}
			if err := e.Hardlink("/a/f", "/a/l"); err != nil && !errors.Is(err, enclave.ErrExists) {
				return err
			}
			return e.SyncMetadata() // a retry that found the link made drains here
		}, false, "/a/g", func(e *enclave.Enclave, _ bool) error {
			// A count is raised before the new name appears.
			st, err := e.Lookup("/a/f")
			if err != nil {
				return err
			}
			names := uint32(1)
			if _, err := e.Lookup("/a/l"); err == nil {
				names++
			}
			if st.Links < names {
				return fmt.Errorf("/a/f has %d names and a link count of %d", names, st.Links)
			}
			return nil
		}},
		// The remove of a file with other links clears the name before the
		// count drops.
		{"remove of a link", "/a/f", old, old, func(e *enclave.Enclave) error {
			if err := e.Hardlink("/a/f", "/a/h"); err != nil && !errors.Is(err, enclave.ErrExists) {
				return err
			}
			if err := e.Remove("/a/h"); err != nil && !errors.Is(err, enclave.ErrNotFound) {
				return err
			}
			return nil
		}, false, "", func(e *enclave.Enclave, retried bool) error {
			st, err := e.Lookup("/a/f")
			if err != nil {
				return err
			}
			names := uint32(1)
			if _, err := e.Lookup("/a/h"); err == nil {
				names++
			}
			if st.Links < names || retried && names > 1 {
				return fmt.Errorf("/a/f has %d names and a link count of %d", names, st.Links)
			}
			return nil
		}},
		{"SetACL with a pending remove", "/a/f", old, old, func(e *enclave.Enclave) error {
			if err := removePending(e); err != nil {
				return err
			}
			return e.SetACL("/a", "bob", acl.Read)
		}, false, "/a/g", func(e *enclave.Enclave, retried bool) error {
			got, err := e.GetACL("/a")
			if err != nil {
				return err
			}
			if r, ok := got["bob"]; ok && r != acl.Read || retried && !ok {
				return fmt.Errorf("bob's rights on /a are %v", got)
			}
			return nil
		}},
		{"RemoveUser with a pending remove", "/a/f", old, old, func(e *enclave.Enclave) error {
			if err := removePending(e); err != nil {
				return err
			}
			if err := e.RemoveUser("bob"); err != nil && !errors.Is(err, metadata.ErrUserNotFound) {
				return err
			}
			return e.SyncMetadata() // a retry that found bob gone drains here
		}, false, "/a/g", func(e *enclave.Enclave, retried bool) error {
			if _, err := e.UserGroup("bob"); retried && !errors.Is(err, metadata.ErrUserNotFound) {
				return fmt.Errorf("bob is still a member after the retry (%v)", err)
			}
			return nil
		}},
		{"GrantAccess with a pending remove", "/a/f", old, old, func(e *enclave.Enclave) error {
			if err := removePending(e); err != nil {
				return err
			}
			_, err := e.GrantAccess(carolOffer, "carol", carolPub, ownerSign)
			return err
		}, false, "/a/g", func(e *enclave.Enclave, retried bool) error {
			// Whoever the table holds is enrolled in the key tree.
			if _, err := e.UserGroup("carol"); err != nil && (retried || !errors.Is(err, metadata.ErrUserNotFound)) {
				return fmt.Errorf("carol after the grant: %v", err)
			}
			return nil
		}},
		// A grant made with nothing pending only widens access: one put
		// under the root's lock, its leaf waiting for the next root commit
		// (§15.2). An admission with nothing pending commits the root.
		{"SetACL grant", "/a/f", old, old, func(e *enclave.Enclave) error {
			return e.SetACL("/a", "bob", acl.Read)
		}, false, "", func(e *enclave.Enclave, retried bool) error {
			got, err := e.GetACL("/a")
			if err != nil {
				return err
			}
			if r, ok := got["bob"]; ok && r != acl.Read || retried && !ok {
				return fmt.Errorf("bob's rights on /a are %v", got)
			}
			return nil
		}},
		{"GrantAccess", "/a/f", old, old, func(e *enclave.Enclave) error {
			_, err := e.GrantAccess(carolOffer, "carol", carolPub, ownerSign)
			return err
		}, false, "", func(e *enclave.Enclave, retried bool) error {
			if _, err := e.UserGroup("carol"); err != nil && (retried || !errors.Is(err, metadata.ErrUserNotFound)) {
				return fmt.Errorf("carol after the grant: %v", err)
			}
			return nil
		}},
	}
	for _, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			// reads reports what a client sees at the class's path.
			reads := func(t *testing.T, e *enclave.Enclave, when string) []byte {
				t.Helper()
				got, err := e.ReadFile(c.path)
				if errors.Is(err, enclave.ErrNotFound) {
					return nil
				}
				if c.inPlace && when == "after the fault" && errors.Is(err, metadata.ErrTampered) && !errors.Is(err, enclave.ErrStaleMetadata) {
					return c.was // chunks rewritten under the old filenode
				}
				if err != nil {
					t.Fatalf("%s: reading %s: %v", when, c.path, err)
				}
				return got
			}
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
				if err := e.Mkdir("/a"); err != nil {
					t.Fatal(err)
				}
				if err := e.Mkdir("/b"); err != nil {
					t.Fatal(err)
				}
				if _, err := e.AddUser("bob", bobPub); err != nil {
					t.Fatal(err)
				}
				ownerSign = func(msg []byte) ([]byte, error) { return ed25519.Sign(v.priv, msg), nil }
				peer, _ := v.newEnclave(t)
				if carolOffer, err = peer.CreateExchangeOffer("carol", carolSign); err != nil {
					t.Fatal(err)
				}
				if err := e.SaveFile("/a/f", old, true); err != nil {
					t.Fatal(err)
				}
				if err := e.SaveFile("/a/s", smallOld, true); err != nil {
					t.Fatal(err)
				}
				if c.gone != "" {
					if err := e.SaveFile(c.gone, moved, true); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := e.ReadFile(c.path); err != nil && !errors.Is(err, enclave.ErrNotFound) {
					t.Fatal(err) // warms every cache on the path
				}

				store.arm(k)
				opErr := c.op(e)
				store.disarm()
				if opErr == nil {
					if k == 0 {
						t.Fatal("a store dead from the first call did not fail the op")
					}
					fresh, _ := v.client(t)
					if got := reads(t, fresh, "untouched run"); !bytes.Equal(got, c.want) {
						t.Fatalf("the op with a live store left %q", got)
					}
					t.Logf("swept a store dying at each of %d store calls", k)
					return
				}
				if !errors.Is(opErr, enclave.ErrStoreUnavailable) {
					t.Fatalf("k=%d: failed with %v, want ErrStoreUnavailable", k, opErr)
				}
				fresh, _ := v.client(t)
				if got := reads(t, fresh, "after the fault"); !bytes.Equal(got, c.was) && !bytes.Equal(got, c.want) {
					t.Fatalf("k=%d: a restarted client reads %d bytes, neither the old state nor the new", k, len(got))
				}
				if c.gone != "" {
					if got, err := fresh.ReadFile(c.gone); err != nil && !errors.Is(err, enclave.ErrNotFound) || err == nil && !bytes.Equal(got, moved) {
						t.Fatalf("k=%d: a restarted client reads %s as %d bytes, %v: neither the old directory nor the new", k, c.gone, len(got), err)
					}
				}
				if c.check != nil {
					if err := c.check(fresh, false); err != nil {
						t.Fatalf("k=%d: after the fault: %v", k, err)
					}
				}
				if err := c.op(e); err != nil {
					t.Fatalf("k=%d: retry once the store is back: %v", k, err)
				}
				for _, who := range []*enclave.Enclave{e, fresh} {
					if got := reads(t, who, "after the retry"); !bytes.Equal(got, c.want) {
						t.Fatalf("k=%d: after the retry a client reads %d bytes, want the new state", k, len(got))
					}

					if c.gone == "" {
						continue
					}
					if _, err := who.Lookup(c.gone); !errors.Is(err, enclave.ErrNotFound) {
						t.Fatalf("k=%d: after the retry %s is still there (%v)", k, c.gone, err)
					}
				}
				if c.check != nil {
					// The supernode a client holds is the one it mounted.
					latest, _ := v.client(t)
					for _, who := range []*enclave.Enclave{e, latest} {
						if err := c.check(who, true); err != nil {
							t.Fatalf("k=%d: after the retry: %v", k, err)
						}
					}
				}
				if k > 100 {
					t.Fatal("fault sweep did not terminate")
				}
			}
		})
	}
}
