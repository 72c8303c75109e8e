package nexus

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"nexus/internal/afs"
	"nexus/internal/backend"
	"nexus/internal/enclave"
)

// TestConcurrentClientsSameDirectory exercises the §V-A data-consistency
// mechanism: two independent NEXUS clients (separate enclaves, separate
// AFS caches) create files in the same directory simultaneously. The
// store-side metadata locks and callback invalidations must prevent lost
// updates: afterwards both clients see every file.
func TestConcurrentClientsSameDirectory(t *testing.T) {
	srv := afs.NewServer(backend.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	addr := l.Addr().String()

	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	newStack := func() (*Client, *afs.Client) {
		store, err := afs.Dial(addr, afs.ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		c, err := NewClient(ClientConfig{Store: store, IAS: ias})
		if err != nil {
			t.Fatal(err)
		}
		return c, store
	}

	// Owen creates the volume and the shared directory.
	owenClient, owenAFS := newStack()
	owen, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := owenClient.CreateVolume(owen)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.FS().MkdirAll("/shared"); err != nil {
		t.Fatal(err)
	}

	// Alice joins via the exchange protocol and gets full rights.
	aliceClient, aliceAFS := newStack()
	_ = aliceAFS
	alice, err := NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}
	offer, err := aliceClient.CreateShareOffer(alice)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := vol.GrantAccess(offer, "alice", alice.PublicKey, owen)
	if err != nil {
		t.Fatal(err)
	}
	aliceSealed, volID, err := aliceClient.AcceptShareGrant(grant, owen.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.SetACL("/", "alice", ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := vol.SetACL("/shared", "alice", ReadWrite); err != nil {
		t.Fatal(err)
	}
	aliceVol, err := aliceClient.Mount(alice, aliceSealed, volID)
	if err != nil {
		t.Fatal(err)
	}

	// Both clients hammer the same directory concurrently.
	const perClient = 20
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	record := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		fs := vol.FS()
		for i := 0; i < perClient; i++ {
			record(fs.WriteFile(fmt.Sprintf("/shared/owen-%02d", i), []byte("from owen")))
		}
	}()
	go func() {
		defer wg.Done()
		fs := aliceVol.FS()
		for i := 0; i < perClient; i++ {
			record(fs.WriteFile(fmt.Sprintf("/shared/alice-%02d", i), []byte("from alice")))
		}
	}()
	wg.Wait()
	if firstErr != nil {
		t.Fatalf("concurrent writes failed: %v", firstErr)
	}

	// Every file must be visible to BOTH clients (no lost directory
	// updates despite interleaved dirnode rewrites).
	for name, fs := range map[string]*FS{"owen": vol.FS(), "alice": aliceVol.FS()} {
		entries, err := fs.ReadDir("/shared")
		if err != nil {
			t.Fatalf("%s ReadDir: %v", name, err)
		}
		if len(entries) != 2*perClient {
			t.Fatalf("%s sees %d entries, want %d", name, len(entries), 2*perClient)
		}
	}
	// Cross-reads: alice reads owen's file and vice versa.
	got, err := aliceVol.FS().ReadFile("/shared/owen-00")
	if err != nil || string(got) != "from owen" {
		t.Fatalf("alice cross-read = %q, %v", got, err)
	}
	got, err = vol.FS().ReadFile("/shared/alice-19")
	if err != nil || string(got) != "from alice" {
		t.Fatalf("owen cross-read = %q, %v", got, err)
	}

	_, stores := srv.Stats()
	if stores == 0 {
		t.Fatal("server saw no stores")
	}
	_ = owenAFS
}

// TestLockOrderFilenodeBeforeRoot pins the commit's lock order (DESIGN.md
// §12.4) between two clients of one AFS server: filenode locks are taken
// before the freshness root's lock and never while holding it. One client
// rewrites /d/f in a loop — its filenode's lock, then the root's. The
// other, in a loop, hardlinks /d/f to /e/g (that filenode's lock, then the
// root's), unlinks /e/g, and renames a new file onto /d/f, which locks both
// filenodes in name order and then the root. Nothing may deadlock; the
// errors a client can see are the ones a file replaced under it explains.
func TestLockOrderFilenodeBeforeRoot(t *testing.T) {
	srv := afs.NewServer(backend.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	newClient := func() *Client {
		store, err := afs.Dial(l.Addr().String(), afs.ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		c, err := NewClient(ClientConfig{Store: store, IAS: ias})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	owen, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := newClient().CreateVolume(owen)
	if err != nil {
		t.Fatal(err)
	}
	owenFS := vol.FS()
	for _, dir := range []string{"/d", "/e"} {
		if err := owenFS.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := owenFS.WriteFile("/d/f", []byte("initial")); err != nil {
		t.Fatal(err)
	}
	aliceClient := newClient()
	alice, err := NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}
	offer, err := aliceClient.BeginMutualShare(alice)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := vol.GrantAccessMutual(offer, "alice", alice.PublicKey, owen)
	if err != nil {
		t.Fatal(err)
	}
	sealed, volID, err := aliceClient.AcceptMutualShareGrant(grant, owen.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/", "/d", "/e"} {
		if err := vol.SetACL(dir, "alice", ReadWrite); err != nil {
			t.Fatal(err)
		}
	}
	aliceVol, err := aliceClient.Mount(alice, sealed, volID)
	if err != nil {
		t.Fatal(err)
	}
	aliceFS := aliceVol.FS()

	// A write can find the file it resolved replaced before it took the
	// file's lock; nothing else is expected.
	benign := func(err error) bool {
		return err == nil || errors.Is(err, enclave.ErrNotFound) || errors.Is(err, backend.ErrNotExist) ||
			errors.Is(err, enclave.ErrStaleMetadata)
	}
	const rounds = 15
	errs := make(chan error, 2)
	go func() {
		for i := 0; i < rounds*3; i++ {
			if err := owenFS.WriteFile("/d/f", []byte(fmt.Sprintf("owen %d", i))); !benign(err) {
				errs <- fmt.Errorf("write %d: %w", i, err)
				return
			}
		}
		errs <- nil
	}()
	go func() {
		for i := 0; i < rounds; i++ {
			for _, step := range []struct {
				what string
				run  func() error
			}{
				{"hardlink", func() error { return aliceFS.Hardlink("/d/f", "/e/g") }},
				{"unlink", func() error { return aliceFS.Remove("/e/g") }},
				{"write", func() error { return aliceFS.WriteFile("/e/new", []byte(fmt.Sprintf("alice %d", i))) }},
				{"rename onto /d/f", func() error { return aliceFS.Rename("/e/new", "/d/f") }},
			} {
				if err := step.run(); err != nil {
					errs <- fmt.Errorf("round %d: %s: %w", i, step.what, err)
					return
				}
			}
		}
		errs <- nil
	}()
	deadline := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("deadlocked: the loops did not finish within 10s")
		}
	}
	for name, fs := range map[string]*FS{"owen": owenFS, "alice": aliceFS} {
		if _, err := fs.ReadFile("/d/f"); err != nil {
			t.Fatalf("%s reads /d/f after the loops: %v", name, err)
		}
	}
}

// TestConcurrentWritersSameFile verifies last-writer-wins with no
// torn/corrupt state when two clients rewrite one file under contention.
func TestConcurrentWritersSameFile(t *testing.T) {
	srv := afs.NewServer(backend.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()

	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	store1, err := afs.Dial(l.Addr().String(), afs.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store1.Close()
	client1, err := NewClient(ClientConfig{Store: store1, IAS: ias})
	if err != nil {
		t.Fatal(err)
	}
	owen, err := NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	vol1, _, err := client1.CreateVolume(owen)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol1.FS().WriteFile("/contended", []byte("init")); err != nil {
		t.Fatal(err)
	}

	store2, err := afs.Dial(l.Addr().String(), afs.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	client2, err := NewClient(ClientConfig{Store: store2, IAS: ias})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := NewIdentity("alice")
	if err != nil {
		t.Fatal(err)
	}
	offer, err := client2.CreateShareOffer(alice)
	if err != nil {
		t.Fatal(err)
	}
	grantBytes, err := vol1.GrantAccess(offer, "alice", alice.PublicKey, owen)
	if err != nil {
		t.Fatal(err)
	}
	sealed2, volID, err := client2.AcceptShareGrant(grantBytes, owen.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := vol1.SetACL("/", "alice", ReadWrite); err != nil {
		t.Fatal(err)
	}
	vol2, err := client2.Mount(alice, sealed2, volID)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	writer := func(v *Volume, tag string) {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			payload := []byte(fmt.Sprintf("%s-%03d", tag, i))
			if err := v.FS().WriteFile("/contended", payload); err != nil &&
				!errors.Is(err, enclave.ErrStaleMetadata) {
				t.Errorf("%s write %d: %v", tag, i, err)
				return
			}
		}
	}
	go writer(vol1, "owen")
	go writer(vol2, "alice")
	wg.Wait()

	// Whatever won, both clients converge on one consistent final value
	// once the (asynchronous) callback invalidations land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a, errA := vol1.FS().ReadFile("/contended")
		b, errB := vol2.FS().ReadFile("/contended")
		if errA != nil || errB != nil {
			t.Fatalf("final reads: %v / %v", errA, errB)
		}
		if string(a) == string(b) {
			if len(a) < 5 {
				t.Fatalf("final contents suspicious: %q", a)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("clients never converged: %q vs %q", a, b)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
