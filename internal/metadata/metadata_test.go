package metadata

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"
	"testing/quick"

	"nexus/internal/uuid"
)

func testRootKey(t *testing.T) []byte {
	t.Helper()
	k, err := NewRootKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	rk := testRootKey(t)
	p := Preamble{Type: TypeDirnode, UUID: uuid.New(), Parent: uuid.New(), Version: 7}
	body := []byte("directory listing plaintext")

	blob, err := Seal(rk, p, body)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if bytes.Contains(blob, body) {
		t.Fatal("sealed blob contains plaintext body")
	}
	gotP, gotBody, err := Open(rk, blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if gotP != p {
		t.Fatalf("preamble = %+v, want %+v", gotP, p)
	}
	if !bytes.Equal(gotBody, body) {
		t.Fatal("body mismatch")
	}
}

func TestSealFreshKeysPerUpdate(t *testing.T) {
	rk := testRootKey(t)
	p := Preamble{Type: TypeFilenode, UUID: uuid.New(), Version: 1}
	body := []byte("same body")
	b1, err := Seal(rk, p, body)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Seal(rk, p, body)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, b2) {
		t.Fatal("two seals of the same body are identical (keys not fresh)")
	}
}

func TestOpenWrongRootKey(t *testing.T) {
	rk1 := testRootKey(t)
	rk2 := testRootKey(t)
	blob, err := Seal(rk1, Preamble{Type: TypeSupernode, UUID: uuid.New(), Version: 1}, []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(rk2, blob); !errors.Is(err, ErrTampered) {
		t.Fatalf("Open with wrong rootkey = %v, want ErrTampered", err)
	}
}

func TestOpenDetectsAnyBitFlip(t *testing.T) {
	rk := testRootKey(t)
	blob, err := Seal(rk, Preamble{Type: TypeDirnode, UUID: uuid.New(), Version: 3}, []byte("sensitive"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in every region: preamble, wrapped key, IV, ciphertext,
	// tag. All must fail (preamble flips may also surface as Malformed).
	for i := 0; i < len(blob); i++ {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x01
		if _, _, err := Open(rk, mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

func TestOpenRejectsShortAndGarbage(t *testing.T) {
	rk := testRootKey(t)
	if _, _, err := Open(rk, nil); err == nil {
		t.Fatal("nil blob accepted")
	}
	if _, _, err := Open(rk, make([]byte, 10)); err == nil {
		t.Fatal("short blob accepted")
	}
	junk := make([]byte, 256)
	if _, err := rand.Read(junk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(rk, junk); err == nil {
		t.Fatal("garbage blob accepted")
	}
}

func TestPreambleVersionIsAuthenticated(t *testing.T) {
	// An attacker rolling back the plaintext version field must be
	// detected, since the preamble is AAD for both wrap and body.
	rk := testRootKey(t)
	p := Preamble{Type: TypeDirnode, UUID: uuid.New(), Version: 9}
	blob, err := Seal(rk, p, []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(blob)
	// The version field is the last 8 preamble bytes.
	mut[preambleSize-8] = 1 // version 9 -> 1
	if _, _, err := Open(rk, mut); err == nil {
		t.Fatal("preamble version rollback accepted")
	}
}

func TestPeekPreamble(t *testing.T) {
	rk := testRootKey(t)
	p := Preamble{Type: TypeFilenode, UUID: uuid.New(), Parent: uuid.New(), Version: 2}
	blob, err := Seal(rk, p, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := PeekPreamble(blob)
	if err != nil {
		t.Fatalf("PeekPreamble: %v", err)
	}
	if got != p {
		t.Fatalf("PeekPreamble = %+v, want %+v", got, p)
	}
	if _, err := PeekPreamble(blob[:preambleSize-1]); err == nil {
		t.Fatal("short preamble accepted")
	}
}

func TestTagExtraction(t *testing.T) {
	rk := testRootKey(t)
	blob, err := Seal(rk, Preamble{Type: TypeDirBucket, UUID: uuid.New(), Version: 1}, []byte("bucket"))
	if err != nil {
		t.Fatal(err)
	}
	tag, err := Tag(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tag[:], blob[len(blob)-16:]) {
		t.Fatal("Tag did not return trailing 16 bytes")
	}
	if _, err := Tag(make([]byte, 8)); err == nil {
		t.Fatal("Tag of short blob accepted")
	}
}

func TestQuickSealOpen(t *testing.T) {
	rk := testRootKey(t)
	f := func(body []byte, version uint64) bool {
		p := Preamble{Type: TypeDirnode, UUID: uuid.New(), Version: version}
		blob, err := Seal(rk, p, body)
		if err != nil {
			return false
		}
		gotP, gotBody, err := Open(rk, blob)
		return err == nil && gotP == p && bytes.Equal(gotBody, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- Supernode ---

func newKey(t *testing.T) ed25519.PublicKey {
	t.Helper()
	pub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

func TestSupernodeUserManagement(t *testing.T) {
	ownerKey := newKey(t)
	s, err := NewSupernode("owen", ownerKey)
	if err != nil {
		t.Fatal(err)
	}
	if u, err := s.FindUserByID(OwnerUserID); err != nil || u.Name != "owen" {
		t.Fatalf("owner = %+v, %v", u, err)
	}

	aliceKey := newKey(t)
	aliceID, err := s.AddUser("alice", aliceKey)
	if err != nil {
		t.Fatal(err)
	}
	if aliceID == OwnerUserID {
		t.Fatal("alice assigned the owner ID")
	}
	bobID, err := s.AddUser("bob", newKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if bobID == aliceID {
		t.Fatal("duplicate user IDs assigned")
	}

	// Duplicates rejected.
	if _, err := s.AddUser("alice", newKey(t)); !errors.Is(err, ErrUserExists) {
		t.Fatalf("duplicate name = %v", err)
	}
	if _, err := s.AddUser("alice2", aliceKey); !errors.Is(err, ErrUserExists) {
		t.Fatalf("duplicate key = %v", err)
	}
	if _, err := s.AddUser("owen", newKey(t)); !errors.Is(err, ErrUserExists) {
		t.Fatalf("owner name reuse = %v", err)
	}

	// Lookups.
	u, err := s.FindUserByKey(aliceKey)
	if err != nil || u.Name != "alice" {
		t.Fatalf("FindUserByKey = %+v, %v", u, err)
	}
	u, err = s.FindUserByName("owen")
	if err != nil || u.ID != OwnerUserID {
		t.Fatalf("FindUserByName(owen) = %+v, %v", u, err)
	}

	// Removal (revocation).
	removedID, err := s.RemoveUser("alice")
	if err != nil || removedID != aliceID {
		t.Fatalf("RemoveUser = %d, %v", removedID, err)
	}
	if _, err := s.FindUserByKey(aliceKey); !errors.Is(err, ErrUserNotFound) {
		t.Fatal("alice still present after removal")
	}
	if _, err := s.RemoveUser("owen"); err == nil {
		t.Fatal("owner removal accepted")
	}
	// IDs are never reused.
	carolID, err := s.AddUser("carol", newKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if carolID == aliceID {
		t.Fatal("revoked user's ID was reused")
	}
}

func TestSupernodeEncodeDecode(t *testing.T) {
	ownerKey := newKey(t)
	s, err := NewSupernode("owen", ownerKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddUser("alice", newKey(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddUser("bob", newKey(t)); err != nil {
		t.Fatal(err)
	}

	got, err := DecodeSupernodeBody(s.EncodeBody())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.VolumeUUID != s.VolumeUUID || got.RootDir != s.RootDir {
		t.Fatal("uuid fields lost")
	}
	if owner, err := got.FindUserByID(OwnerUserID); err != nil || owner.Name != "owen" || !bytes.Equal(owner.PublicKey, ownerKey) {
		t.Fatal("owner lost")
	}
	if users := got.Users(); len(users) != 3 || users[0].Name != "owen" || users[1].Name != "alice" || got.NextUserID != s.NextUserID {
		t.Fatalf("users lost: %+v", users)
	}

	// Truncated body rejected.
	if _, err := DecodeSupernodeBody(s.EncodeBody()[:10]); err == nil {
		t.Fatal("truncated supernode accepted")
	}
}

func TestSupernodeValidation(t *testing.T) {
	if _, err := NewSupernode("", newKey(t)); err == nil {
		t.Fatal("empty owner name accepted")
	}
	if _, err := NewSupernode("o", ed25519.PublicKey([]byte("short"))); err == nil {
		t.Fatal("short owner key accepted")
	}
	s, err := NewSupernode("o", newKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddUser("", newKey(t)); err == nil {
		t.Fatal("empty username accepted")
	}
}
