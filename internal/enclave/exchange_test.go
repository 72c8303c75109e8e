package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nexus/internal/acl"
	"nexus/internal/sgx"
)

// exchangeScenario sets up Owen (volume owner) and Alice on separate
// platforms sharing one attestation service and one storage service.
type exchangeScenario struct {
	ias   *sgx.AttestationService
	store *memObjectStore

	owen, alice       identity
	owenEnv, aliceEnv *testEnv
	sealed            []byte
}

func newExchangeScenario(t testing.TB) *exchangeScenario {
	t.Helper()
	ias, err := sgx.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	store := newMemObjectStore()
	s := &exchangeScenario{
		ias:   ias,
		store: store,
		owen:  newIdentity(t, "owen"),
		alice: newIdentity(t, "alice"),
	}
	s.owenEnv = newTestEnv(t, ias, store)
	s.aliceEnv = newTestEnv(t, ias, store)

	sealed, err := s.owenEnv.enclave.CreateVolume("owen", s.owen.pub)
	if err != nil {
		t.Fatal(err)
	}
	s.sealed = sealed
	volID, err := s.owenEnv.enclave.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, s.owenEnv.enclave, s.owen, sealed, volID); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRootkeyExchangeEndToEnd(t *testing.T) {
	s := newExchangeScenario(t)

	// Setup: Alice's enclave publishes its attested ECDH key (m1),
	// in-band on the shared store.
	offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
	if err != nil {
		t.Fatalf("CreateExchangeOffer: %v", err)
	}
	if _, err := s.store.PutVersioned("xchg-offer-alice", offer); err != nil {
		t.Fatal(err)
	}

	// Exchange: Owen validates and grants (m2), also in-band.
	offerBytes, _, err := s.store.GetVersioned("xchg-offer-alice")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := s.owenEnv.enclave.GrantAccess(offerBytes, "alice", s.alice.pub, s.owen.signer())
	if err != nil {
		t.Fatalf("GrantAccess: %v", err)
	}
	if _, err := s.store.PutVersioned("xchg-grant-alice", grant); err != nil {
		t.Fatal(err)
	}

	// The grant must not leak the rootkey: it is ECDH-encrypted.
	// (We cannot see the rootkey directly; check the grant differs from
	// the sealed blob and contains no long zero runs etc. — minimally,
	// decode succeeds and ciphertext is non-trivial.)
	g, err := DecodeGrant(grant)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Ciphertext) < 32 {
		t.Fatal("grant ciphertext too short to hold a wrapped rootkey")
	}

	// Extraction: Alice recovers and seals the rootkey in her enclave.
	grantBytes, _, err := s.store.GetVersioned("xchg-grant-alice")
	if err != nil {
		t.Fatal(err)
	}
	sealedForAlice, volID, err := s.aliceEnv.enclave.AcceptGrant(grantBytes, s.owen.pub)
	if err != nil {
		t.Fatalf("AcceptGrant: %v", err)
	}
	if bytes.Equal(sealedForAlice, s.sealed) {
		t.Fatal("alice's sealed rootkey equals owen's (not platform-bound)")
	}

	// Alice mounts the shared volume on her machine and uses it.
	if err := authenticate(t, s.aliceEnv.enclave, s.alice, sealedForAlice, volID); err != nil {
		t.Fatalf("alice mount: %v", err)
	}
	// Owen wrote a file; alice needs ACL grants to read it.
	if err := s.owenEnv.enclave.Touch("/readme"); err != nil {
		t.Fatal(err)
	}
	if err := s.owenEnv.enclave.WriteFile("/readme", []byte("hello alice")); err != nil {
		t.Fatal(err)
	}
	if err := s.owenEnv.enclave.SetACL("/", "alice", // root read grant
		mustRights(t, "lr")); err != nil {
		t.Fatal(err)
	}
	got, err := s.aliceEnv.enclave.ReadFile("/readme")
	if err != nil {
		t.Fatalf("alice read: %v", err)
	}
	if string(got) != "hello alice" {
		t.Fatalf("alice read = %q", got)
	}
}

func TestGrantRequiresOwner(t *testing.T) {
	s := newExchangeScenario(t)
	bob := newIdentity(t, "bob")
	if _, err := s.owenEnv.enclave.AddUser("bob", bob.pub); err != nil {
		t.Fatal(err)
	}
	volID, err := s.owenEnv.enclave.VolumeUUID()
	if err != nil {
		t.Fatal(err)
	}
	if err := authenticate(t, s.owenEnv.enclave, bob, s.sealed, volID); err != nil {
		t.Fatal(err)
	}

	offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.owenEnv.enclave.GrantAccess(offer, "alice", s.alice.pub, bob.signer()); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("non-owner grant = %v, want ErrAccessDenied", err)
	}
}

func TestGrantRejectsForgedOffer(t *testing.T) {
	s := newExchangeScenario(t)
	mallory := newIdentity(t, "mallory")

	// Offer signed by mallory but presented as alice's.
	offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", mallory.signer())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.owenEnv.enclave.GrantAccess(offer, "alice", s.alice.pub, s.owen.signer()); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("forged offer = %v, want ErrExchangeInvalid", err)
	}
}

func TestGrantRejectsNonNexusEnclave(t *testing.T) {
	s := newExchangeScenario(t)

	// A genuine platform running a DIFFERENT enclave (e.g. malware that
	// would exfiltrate the rootkey) produces a valid quote with the
	// wrong measurement.
	roguePlatform, err := sgx.NewPlatform(sgx.PlatformConfig{}, s.ias)
	if err != nil {
		t.Fatal(err)
	}
	rogueContainer, err := roguePlatform.CreateEnclave(sgx.Image{
		Name: "rogue", Version: 1, Code: []byte("malicious code"),
	})
	if err != nil {
		t.Fatal(err)
	}
	rogueStore := newMemObjectStore()
	rogue, err := New(Config{SGX: rogueContainer, Store: rogueStore, IAS: s.ias})
	if err != nil {
		t.Fatal(err)
	}
	offer, err := rogue.CreateExchangeOffer("alice", s.alice.signer())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.owenEnv.enclave.GrantAccess(offer, "alice", s.alice.pub, s.owen.signer()); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("rogue-enclave offer = %v, want ErrExchangeInvalid", err)
	}
}

func TestGrantRejectsTamperedOffer(t *testing.T) {
	s := newExchangeScenario(t)
	offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeOffer(offer)
	if err != nil {
		t.Fatal(err)
	}
	// Substitute the ECDH key (attacker redirecting the grant to their
	// own key): the quote binding must catch it.
	other, err := s.owenEnv.enclave.CreateExchangeOffer("owen", s.owen.signer())
	if err != nil {
		t.Fatal(err)
	}
	otherDecoded, err := DecodeOffer(other)
	if err != nil {
		t.Fatal(err)
	}
	decoded.EnclaveKey = otherDecoded.EnclaveKey
	decoded.UserSig = s.alice.sign(t, decoded.Quote.Encode())
	if _, err := s.owenEnv.enclave.GrantAccess(decoded.Encode(), "alice", s.alice.pub, s.owen.signer()); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("key-substituted offer = %v, want ErrExchangeInvalid", err)
	}
}

func TestAcceptGrantRejectsWrongEnclave(t *testing.T) {
	s := newExchangeScenario(t)

	offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
	if err != nil {
		t.Fatal(err)
	}
	grant, err := s.owenEnv.enclave.GrantAccess(offer, "alice", s.alice.pub, s.owen.signer())
	if err != nil {
		t.Fatal(err)
	}
	// A third enclave (carol's) intercepts the grant: without alice's
	// enclave private key the ECDH secret differs and decryption fails.
	carolEnv := newTestEnv(t, s.ias, s.store)
	if _, _, err := carolEnv.enclave.AcceptGrant(grant, s.owen.pub); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("grant accepted by wrong enclave: %v", err)
	}
}

func TestAcceptGrantRejectsForgedSignature(t *testing.T) {
	s := newExchangeScenario(t)
	offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
	if err != nil {
		t.Fatal(err)
	}
	grant, err := s.owenEnv.enclave.GrantAccess(offer, "alice", s.alice.pub, s.owen.signer())
	if err != nil {
		t.Fatal(err)
	}
	// Alice checks the grant against the wrong owner key (a MITM server
	// substituting its own grant would fail exactly this check).
	mallory := newIdentity(t, "mallory")
	if _, _, err := s.aliceEnv.enclave.AcceptGrant(grant, mallory.pub); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("wrong owner key accepted: %v", err)
	}
	// Tampered ciphertext.
	g, err := DecodeGrant(grant)
	if err != nil {
		t.Fatal(err)
	}
	g.Ciphertext[0] ^= 1
	g.OwnerSig = s.owen.sign(t, g.signedPortion()) // re-sign to isolate the AEAD check
	if _, _, err := s.aliceEnv.enclave.AcceptGrant(g.Encode(), s.owen.pub); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("tampered ciphertext accepted: %v", err)
	}
}

// TestExchangeRejectsWrongLengthKey: a caller-supplied Ed25519 key of the
// wrong length is an invalid exchange, not a panic inside the ecall
// (ed25519.Verify panics on len(pub) != 32 and sgx.Ecall does not
// recover).
func TestExchangeRejectsWrongLengthKey(t *testing.T) {
	shortKey := make([]byte, 31)
	for _, tc := range []struct {
		name string
		call func(t *testing.T, s *exchangeScenario) error
	}{
		{"GrantAccess", func(t *testing.T, s *exchangeScenario) error {
			offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.owenEnv.enclave.GrantAccess(offer, "alice", shortKey, s.owen.signer())
			return err
		}},
		{"AcceptGrant", func(t *testing.T, s *exchangeScenario) error {
			offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
			if err != nil {
				t.Fatal(err)
			}
			grant, err := s.owenEnv.enclave.GrantAccess(offer, "alice", s.alice.pub, s.owen.signer())
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = s.aliceEnv.enclave.AcceptGrant(grant, shortKey)
			return err
		}},
		{"GrantAccessMutual", func(t *testing.T, s *exchangeScenario) error {
			offer, err := s.aliceEnv.enclave.BeginMutualExchange("alice", s.alice.signer())
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.owenEnv.enclave.GrantAccessMutual(offer, "alice", shortKey, s.owen.signer())
			return err
		}},
		{"AcceptMutualGrant", func(t *testing.T, s *exchangeScenario) error {
			offer, err := s.aliceEnv.enclave.BeginMutualExchange("alice", s.alice.signer())
			if err != nil {
				t.Fatal(err)
			}
			grant, err := s.owenEnv.enclave.GrantAccessMutual(offer, "alice", s.alice.pub, s.owen.signer())
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = s.aliceEnv.enclave.AcceptMutualGrant(grant, shortKey)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(t, newExchangeScenario(t)); !errors.Is(err, ErrExchangeInvalid) {
				t.Fatalf("31-byte key: err = %v, want ErrExchangeInvalid", err)
			}
		})
	}
}

// TestAcceptGrantRejectsBadNonceLength: the owner's identity key lives
// outside the enclave, so the owner user can sign a grant carrying any
// nonce. One that is not 12 bytes long is an invalid exchange, not a GCM
// panic inside the ecall.
func TestAcceptGrantRejectsBadNonceLength(t *testing.T) {
	for _, n := range []int{0, 11, 13, 64} {
		t.Run(fmt.Sprintf("AcceptGrant/%d", n), func(t *testing.T) {
			s := newExchangeScenario(t)
			offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
			if err != nil {
				t.Fatal(err)
			}
			grant, err := s.owenEnv.enclave.GrantAccess(offer, "alice", s.alice.pub, s.owen.signer())
			if err != nil {
				t.Fatal(err)
			}
			g, err := DecodeGrant(grant)
			if err != nil {
				t.Fatal(err)
			}
			g.Nonce = make([]byte, n)
			g.OwnerSig = s.owen.sign(t, g.signedPortion())
			if _, _, err := s.aliceEnv.enclave.AcceptGrant(g.Encode(), s.owen.pub); !errors.Is(err, ErrExchangeInvalid) {
				t.Fatalf("%d-byte nonce: err = %v, want ErrExchangeInvalid", n, err)
			}
		})
		t.Run(fmt.Sprintf("AcceptMutualGrant/%d", n), func(t *testing.T) {
			s := newExchangeScenario(t)
			offer, err := s.aliceEnv.enclave.BeginMutualExchange("alice", s.alice.signer())
			if err != nil {
				t.Fatal(err)
			}
			grant, err := s.owenEnv.enclave.GrantAccessMutual(offer, "alice", s.alice.pub, s.owen.signer())
			if err != nil {
				t.Fatal(err)
			}
			g, err := DecodeMutualGrant(grant)
			if err != nil {
				t.Fatal(err)
			}
			g.Nonce = make([]byte, n)
			g.OwnerSig = s.owen.sign(t, g.signedPortion())
			if _, _, err := s.aliceEnv.enclave.AcceptMutualGrant(g.Encode(), s.owen.pub); !errors.Is(err, ErrExchangeInvalid) {
				t.Fatalf("%d-byte nonce: err = %v, want ErrExchangeInvalid", n, err)
			}
		})
	}
}

// TestGrantDrainsPendingCreates: both exchanges drain the owner's
// write-back dirty set before the rootkey leaves, so the volume the
// recipient is handed already holds the owner's deferred creates.
func TestGrantDrainsPendingCreates(t *testing.T) {
	for _, mutual := range []bool{false, true} {
		t.Run(fmt.Sprintf("mutual=%v", mutual), func(t *testing.T) {
			s := newExchangeScenario(t)
			volID, err := s.owenEnv.enclave.VolumeUUID()
			if err != nil {
				t.Fatal(err)
			}
			// An owner enclave with the default write-back budget, so the
			// create stays in the dirty set until a barrier drains it.
			onOwnersPlatform := func() *Enclave {
				container, err := s.owenEnv.platform.CreateEnclave(nexusImage)
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(Config{SGX: container, Store: s.store, IAS: s.ias})
				if err != nil {
					t.Fatal(err)
				}
				if err := authenticate(t, e, s.owen, s.sealed, volID); err != nil {
					t.Fatal(err)
				}
				return e
			}
			owner := onOwnersPlatform()
			if err := owner.Mkdir("/pending"); err != nil {
				t.Fatal(err)
			}
			if dirNames(t, onOwnersPlatform(), "/")["pending"] {
				t.Fatal("the create reached the store before any barrier; the test needs it pending")
			}
			if mutual {
				offer, err := s.aliceEnv.enclave.BeginMutualExchange("alice", s.alice.signer())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := owner.GrantAccessMutual(offer, "alice", s.alice.pub, s.owen.signer()); err != nil {
					t.Fatal(err)
				}
			} else {
				offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := owner.GrantAccess(offer, "alice", s.alice.pub, s.owen.signer()); err != nil {
					t.Fatal(err)
				}
			}
			if !dirNames(t, onOwnersPlatform(), "/")["pending"] {
				t.Fatal("a fresh mount after the grant does not list /pending: the grant did not drain")
			}
		})
	}
}

func TestOfferGrantCodecRobustness(t *testing.T) {
	if _, err := DecodeOffer(nil); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("DecodeOffer(nil) = %v", err)
	}
	if _, err := DecodeOffer([]byte("garbage")); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("DecodeOffer(garbage) = %v", err)
	}
	if _, err := DecodeGrant([]byte{1, 2, 3}); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("DecodeGrant(garbage) = %v", err)
	}
}

func TestExchangeKeyPersistence(t *testing.T) {
	s := newExchangeScenario(t)

	// Alice publishes an offer, then "restarts": a new enclave instance
	// on the same platform restores the sealed exchange key.
	offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
	if err != nil {
		t.Fatal(err)
	}
	sealedKey, err := s.aliceEnv.enclave.SealedExchangeKey()
	if err != nil {
		t.Fatalf("SealedExchangeKey: %v", err)
	}

	restarted, err := New(Config{SGX: s.aliceEnv.enclave.sgx, Store: s.store, IAS: s.ias})
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.RestoreExchangeKey(sealedKey); err != nil {
		t.Fatalf("RestoreExchangeKey: %v", err)
	}

	// Owen grants against the pre-restart offer; the restarted enclave
	// must be able to extract.
	grant, err := s.owenEnv.enclave.GrantAccess(offer, "alice", s.alice.pub, s.owen.signer())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := restarted.AcceptGrant(grant, s.owen.pub); err != nil {
		t.Fatalf("AcceptGrant after restart: %v", err)
	}

	// Without the restore, a fresh enclave's random key cannot extract.
	fresh, err := New(Config{SGX: s.aliceEnv.enclave.sgx, Store: s.store, IAS: s.ias})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.AcceptGrant(grant, s.owen.pub); !errors.Is(err, ErrExchangeInvalid) {
		t.Fatalf("fresh enclave extracted without the key: %v", err)
	}

	// The sealed key is platform-bound.
	otherEnv := newTestEnv(t, s.ias, s.store)
	if err := otherEnv.enclave.RestoreExchangeKey(sealedKey); err == nil {
		t.Fatal("sealed exchange key restored on a different platform")
	}
}

// sign is a test helper producing an identity signature.
func (id identity) sign(t testing.TB, msg []byte) []byte {
	t.Helper()
	sig, err := id.signer()(msg)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func mustRights(t *testing.T, s string) acl.Rights {
	t.Helper()
	parsed, err := acl.ParseRights(s)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}
