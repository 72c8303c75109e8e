package groupkey

import (
	"bytes"
	"errors"
	"testing"
)

// The adversarial model: the evicted user keeps everything it ever
// legitimately held — its member secret, every wrap blob published for
// it, and every intermediate node key it could derive before the
// rotation. After Revoke, none of that may open any post-rotation key
// on its former path, and the volume's current root must be out of
// reach.

// captureKeys chains the member's unwraps and records every node key it
// learns on the way up (what a malicious client would cache).
func captureKeys(t *testing.T, tr *Tree, userID uint32) (secret []byte, wraps []WrappedKey, pathKeys [][]byte) {
	t.Helper()
	secret, err := tr.Secret(userID)
	if err != nil {
		t.Fatalf("Secret(%d): %v", userID, err)
	}
	wraps, ok := tr.PathWraps(userID)
	if !ok {
		t.Fatalf("PathWraps(%d): not a member", userID)
	}
	cur := secret
	for _, w := range wraps {
		next, err := unwrapWith(cur, w.Blob, wrapAAD(w.Level, w.Index, w.Child))
		if err != nil {
			t.Fatalf("pre-revocation unwrap level %d: %v", w.Level, err)
		}
		pathKeys = append(pathKeys, next)
		cur = next
	}
	return secret, wraps, pathKeys
}

func TestAdversarialRevocation(t *testing.T) {
	tr := NewTree(Config{LeafCap: 4, Fanout: 2})
	for id := uint32(1); id <= 32; id++ {
		mustAdd(t, tr, id)
	}
	const victim = 13
	oldSecret, oldWraps, oldPathKeys := captureKeys(t, tr, victim)
	oldRoot := tr.RootSecret()
	victimLeaf, _ := tr.LeafOf(victim)

	if err := tr.Revoke(victim); err != nil {
		t.Fatalf("Revoke: %v", err)
	}

	// 1. The captured chain as a whole no longer reaches the current
	//    root: it still opens (old ciphertexts don't vanish) but yields
	//    only the dead epoch's root.
	if got, err := UnwrapPath(oldSecret, oldWraps); err == nil && bytes.Equal(got, tr.RootSecret()) {
		t.Fatal("captured pre-revocation chain reaches the post-revocation root")
	}

	// 2. The evicted secret opens none of the freshly published wraps on
	//    its former path — neither the leaf's new member wraps nor any
	//    rotated interior wrap.
	for _, m := range tr.leaves[victimLeaf] {
		if _, err := unwrapWith(oldSecret, m.wrap, wrapAAD(0, victimLeaf, m.id)); !errors.Is(err, ErrUnwrap) {
			t.Fatalf("evicted secret opened member %d's new wrap", m.id)
		}
	}
	survivor := tr.leaves[victimLeaf][0].id
	newWraps, _ := tr.PathWraps(survivor)
	for _, w := range newWraps {
		if _, err := unwrapWith(oldSecret, w.Blob, wrapAAD(w.Level, w.Index, w.Child)); !errors.Is(err, ErrUnwrap) {
			t.Fatalf("evicted secret opened post-rotation wrap at level %d", w.Level)
		}
		// 3. Nor do any of the node keys the victim learned before
		//    eviction: every key on the path was rotated.
		for lvl, k := range oldPathKeys {
			if _, err := unwrapWith(k, w.Blob, wrapAAD(w.Level, w.Index, w.Child)); !errors.Is(err, ErrUnwrap) {
				t.Fatalf("captured level-%d key opened post-rotation wrap at level %d", lvl, w.Level)
			}
		}
	}

	// 4. Off-path keys the victim never held stay where they were, but
	//    the root it knew is dead: current root differs from captured.
	if bytes.Equal(oldRoot, tr.RootSecret()) {
		t.Fatal("root not rotated by revocation")
	}
	if bytes.Equal(oldPathKeys[len(oldPathKeys)-1], tr.RootSecret()) {
		t.Fatal("captured root still current")
	}

	// 5. Survivors are unaffected.
	for id := uint32(1); id <= 32; id++ {
		if id == victim {
			continue
		}
		if err := tr.Authenticate(id); err != nil {
			t.Fatalf("survivor %d: %v", id, err)
		}
	}
}

func TestAdversarialReAddGetsNoOldEpochKeys(t *testing.T) {
	tr := NewTree(Config{LeafCap: 4, Fanout: 2})
	for id := uint32(1); id <= 16; id++ {
		mustAdd(t, tr, id)
	}
	const victim = 6
	_, oldWraps, oldPathKeys := captureKeys(t, tr, victim)
	rootAtCapture := tr.RootSecret()

	if err := tr.Revoke(victim); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	// Interleave more churn so the re-add lands in a later epoch.
	if err := tr.Revoke(2); err != nil {
		t.Fatalf("Revoke(2): %v", err)
	}
	mustAdd(t, tr, 100)

	newSecret := mustAdd(t, tr, victim)

	// The re-added identity is a fresh principal: its new secret opens
	// none of the wraps captured in the old epoch…
	for _, w := range oldWraps {
		if _, err := unwrapWith(newSecret, w.Blob, wrapAAD(w.Level, w.Index, w.Child)); !errors.Is(err, ErrUnwrap) {
			t.Fatalf("re-added secret opened old-epoch wrap at level %d", w.Level)
		}
	}
	// …and its current chain derives the current root, not any key from
	// the captured epoch.
	root, err := tr.MemberRoot(victim)
	if err != nil {
		t.Fatalf("MemberRoot after re-add: %v", err)
	}
	if bytes.Equal(root, rootAtCapture) {
		t.Fatal("re-added member derived the old epoch root")
	}
	for lvl, k := range oldPathKeys {
		if bytes.Equal(root, k) {
			t.Fatalf("re-added member derived old level-%d key", lvl)
		}
	}
	if !bytes.Equal(root, tr.RootSecret()) {
		t.Fatal("re-added member does not reach the current root")
	}
	if err := tr.Authenticate(victim); err != nil {
		t.Fatalf("Authenticate after re-add: %v", err)
	}
}
