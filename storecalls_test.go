package nexus_test

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nexus"
	"nexus/internal/afs"
	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/freshtree"
	"nexus/internal/lendcheck"
	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/obs"
	"nexus/internal/plainfs"
	"nexus/internal/uuid"
)

// callRecorder sits between a client's enclave and its store and writes
// down every store call the enclave makes, in order, with the kind of
// object it names: "dir", "fn" (a filenode), "data" (file content),
// "root" (the sealed freshness root) or "super".
type callRecorder struct {
	enclave.FreshnessProofStore

	mu    sync.Mutex
	calls []string
	kinds map[string]string // object name → kind, learnt from the bytes
}

func (r *callRecorder) Instrument(reg *obs.Registry) {
	if in, ok := r.FreshnessProofStore.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
}

func (r *callRecorder) kindLocked(name string, blob []byte) string {
	switch name {
	case enclave.MerkleRootObjectName:
		return "root"
	case enclave.SupernodeObjectName:
		return "super"
	}
	if blob != nil {
		kind := "data"
		if p, err := metadata.PeekPreamble(blob); err == nil {
			switch p.Type {
			case metadata.TypeDirnode, metadata.TypeDirBucket:
				kind = "dir"
			case metadata.TypeFilenode:
				kind = "fn"
			}
		}
		r.kinds[name] = kind
	}
	if kind, ok := r.kinds[name]; ok {
		return kind
	}
	return "?"
}

func (r *callRecorder) note(op, name string, blob []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, op+" "+r.kindLocked(name, blob))
}

func (r *callRecorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	calls := r.calls
	r.calls = nil
	return calls
}

func (r *callRecorder) GetVersioned(name string) ([]byte, uint64, error) {
	data, version, err := r.FreshnessProofStore.GetVersioned(name)
	r.note("get", name, data)
	return data, version, err
}

func (r *callRecorder) PutVersioned(name string, data []byte) (uint64, error) {
	r.note("put", name, data)
	return r.FreshnessProofStore.PutVersioned(name, data)
}

func (r *callRecorder) Delete(name string) error {
	r.note("delete", name, nil)
	return r.FreshnessProofStore.Delete(name)
}

func (r *callRecorder) Lock(name string) (func(), error) {
	r.note("lock", name, nil)
	release, err := r.FreshnessProofStore.Lock(name)
	if err != nil {
		return nil, err
	}
	return func() {
		r.note("unlock", name, nil)
		release()
	}, nil
}

func (r *callRecorder) FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error) {
	r.note("proof", id.String(), nil)
	return r.FreshnessProofStore.FreshnessProof(id, epoch)
}

func (r *callRecorder) FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error) {
	r.mu.Lock()
	r.calls = append(r.calls, fmt.Sprintf("update(%d)", len(updates)))
	r.mu.Unlock()
	return r.FreshnessProofStore.FreshnessUpdate(epoch, updates)
}

// TestStoreCallsPerOpClass pins, on the local adapter with every cache
// warm, the exact store calls of each mutating op class and of a warm
// chunked read (DESIGN.md §11.5), and what each costs in enclave
// crossings. A call added, dropped or moved across a lock changes the
// store's work; the crossings are where batching pays.
func TestStoreCallsPerOpClass(t *testing.T) {
	lendcheck.Watch(t)
	ias, err := nexus.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	rec := &callRecorder{
		FreshnessProofStore: freshtree.New(nexus.NewMemoryStore()),
		kinds:               make(map[string]string),
	}
	client, err := nexus.NewClient(nexus.ClientConfig{Store: rec, IAS: ias})
	if err != nil {
		t.Fatal(err)
	}
	owner, err := nexus.NewIdentity("owen")
	if err != nil {
		t.Fatal(err)
	}
	sgx := client.Enclave().SGX()
	check := func(what string, want []string, crossings [2]int64, op func() error) {
		t.Helper()
		rec.take()
		ec, oc := sgx.EcallCount(), sgx.OcallCount()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got := [2]int64{sgx.EcallCount() - ec, sgx.OcallCount() - oc}
		if calls := rec.take(); !slices.Equal(calls, want) {
			t.Errorf("%s: store calls\n got %s\nwant %s", what, strings.Join(calls, ", "), strings.Join(want, ", "))
		}
		if got != crossings {
			t.Errorf("%s: (ecalls, ocalls) = %v, want %v", what, got, crossings)
		}
	}
	commitTail := []string{"update(1)", "put root", "unlock root"}

	// A new volume is two commits, the root directory's and then the
	// supernode's; the first's root put leaves in the second's re-read
	// exit. The mount that follows reads the supernode and its proof.
	var vol *nexus.Volume
	check("create volume", append(append([]string{"put dir", "lock root", "get root"}, commitTail...),
		"put super", "lock root", "get root", "proof dir", "update(1)", "put root", "unlock root",
		"get super", "proof ?",
	), [2]int64{3, 8}, func() (err error) {
		vol, _, err = client.CreateVolume(owner)
		return err
	})
	fs := vol.FS()
	// The chunked rows' files are above metadata.MaxInlineSize: a filenode
	// and a data object. The 4 KiB rows' files are one sealed filenode, as
	// local_mixed's small files are.
	content := nexus.ChunkedFile
	for _, dir := range []string{"/a", "/b"} {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/a/f", "/a/g", "/a/h", "/a/k"} {
		if err := fs.WriteFile(p, content('x')); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(p); err != nil { // warms the filenode
			t.Fatal(err)
		}
	}

	check("overwrite", append([]string{
		"get dir", "get dir", "lock fn", "get fn", "put data", "put fn", "lock root", "get root",
	}, append(commitTail, "unlock fn")...), [2]int64{1, 4}, func() error {
		return fs.WriteFile("/a/f", content('y'))
	})
	// A create's data put rides its commit's first exit; the new filenode
	// is sealed and put once that put is made, under the root's lock.
	check("create", []string{
		"get dir", "get dir", "put data", "lock root", "get root", "get dir", "proof dir",
		"put fn", "put dir", "update(2)", "put root", "unlock root",
	}, [2]int64{1, 4}, func() error {
		return fs.WriteFile("/a/new", content('n'))
	})
	check("warm chunked read", []string{"get dir", "get dir", "get fn", "get data"}, [2]int64{1, 1}, func() error {
		got, err := fs.ReadFile("/a/new")
		if err == nil && !bytes.Equal(got, content('n')) {
			err = fmt.Errorf("read back other bytes")
		}
		return err
	})
	check("create of a 4 KiB file", []string{
		"get dir", "get dir", "lock root", "get root", "get dir", "proof dir",
		"put fn", "put dir", "update(2)", "put root", "unlock root",
	}, [2]int64{1, 4}, func() error {
		return fs.WriteFile("/a/s", nexus.InlineFile('s'))
	})
	check("warm read of a 4 KiB file", []string{"get dir", "get dir", "get fn"}, [2]int64{1, 1}, func() error {
		got, err := fs.ReadFile("/a/s")
		if err == nil && !bytes.Equal(got, nexus.InlineFile('s')) {
			err = fmt.Errorf("read back other bytes")
		}
		return err
	})
	check("overwrite of a 4 KiB file", append([]string{
		"get dir", "get dir", "lock fn", "get fn", "put fn", "lock root", "get root",
	}, append(commitTail, "unlock fn")...), [2]int64{1, 4}, func() error {
		return fs.WriteFile("/a/s", nexus.InlineFile('t'))
	})
	check("remove", []string{"get dir", "get dir", "lock fn", "get fn", "unlock fn"}, [2]int64{1, 3}, func() error {
		return fs.Remove("/a/g")
	})
	check("drain of a pending remove", []string{
		"lock root", "get root", "get dir", "proof dir", "put dir", "delete data", "delete fn",
		"update(2)", "put root", "unlock root",
	}, [2]int64{1, 3}, fs.Sync)
	check("remove of a 4 KiB file, then sync", []string{
		"get dir", "get dir", "lock fn", "get fn", "unlock fn",
		"lock root", "get root", "get dir", "proof dir", "put dir", "delete fn",
		"update(2)", "put root", "unlock root",
	}, [2]int64{2, 6}, func() error {
		if err := fs.Remove("/a/s"); err != nil {
			return err
		}
		return fs.Sync()
	})
	check("rename of a file across directories", []string{
		"get dir", "get dir", "get dir", "get dir", "lock fn", "lock root", "get root",
		"get dir", "get dir", "get dir", "get dir", "get fn", "put fn", "put dir", "put dir",
		"update(3)", "put root", "unlock root", "unlock fn",
	}, [2]int64{1, 4}, func() error {
		return fs.Rename("/a/h", "/b/h")
	})
	// The open re-reads the root first (Enclave.Revalidate), so the
	// handle starts from the latest committed content.
	check("open, append, sync, close", []string{
		"get root", "get dir", "get dir", "get fn", "get data",
		"get dir", "get dir", "lock fn", "get fn", "put data", "put fn", "lock root", "get root",
		"update(1)", "put root", "unlock root", "unlock fn",
	}, [2]int64{4, 6}, func() error {
		f, err := fs.Open("/a/k", nexus.O_RDWR|nexus.O_APPEND)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("tail")); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		return f.Close()
	})
	// A durable overwrite made while a remove waits in the dirty set is one
	// commit with the drain: the filenode's put rides the root re-read's
	// exit, and its lock is released after the root's put. The walk reads
	// the volume root alone: /a is the remove's dirty copy.
	if err := fs.Remove("/a/new"); err != nil {
		t.Fatal(err)
	}
	check("overwrite after a pending remove", []string{
		"get dir", "lock fn", "get fn", "put data", "put fn", "lock root", "get root", "get dir", "proof dir",
		"put dir", "delete data", "delete fn", "update(3)", "put root", "unlock root", "unlock fn",
	}, [2]int64{1, 5}, func() error {
		return fs.WriteFile("/a/f", content('z'))
	})
	// Content rewritten under the inline cap unnames the old data object:
	// its delete rides the commit's last exit, after the root put.
	if err := fs.WriteFile("/b/w", content('w')); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/b/w"); err != nil {
		t.Fatal(err)
	}
	check("rewrite a chunked file under the inline cap", append([]string{
		"get dir", "get dir", "lock fn", "get fn", "put fn", "lock root", "get root",
	}, append(commitTail, "delete data", "unlock fn")...), [2]int64{1, 4}, func() error {
		return fs.WriteFile("/b/w", []byte("inline now"))
	})
	barrierRowsWithPendingMetadata(t, client, owner, vol, fs, content, check)
	wideningRows(t, client, owner, vol, fs, check)
}

// wideningRows pins the commits made with nothing pending that only widen
// access. AddUser and GrantAccess admitting a new member take the root's
// lock, re-read the root and the supernode and put it; a SetACL grant does
// the same with the directory. None updates the freshness tree or puts the
// root: each leaf waits for the next commit that puts the root (DESIGN.md
// §15.2). Here that is a SetACL that drops a right on another directory,
// whose update carries the two waiting leaves beside its own: the
// supernode's, which both admissions raised, and the grant's. A
// GrantAccess to a member the table already holds changes nothing, and
// puts nothing.
func wideningRows(t *testing.T, client *nexus.Client, owner nexus.Identity, vol *nexus.Volume, fs *nexus.FS,
	check func(string, []string, [2]int64, func() error)) {
	t.Helper()
	if err := vol.SetACL("/b", "carol", nexus.ReadWrite); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	dave, err := nexus.NewIdentity("dave")
	if err != nil {
		t.Fatal(err)
	}
	erin, err := nexus.NewIdentity("erin")
	if err != nil {
		t.Fatal(err)
	}
	offer, err := client.CreateShareOffer(erin)
	if err != nil {
		t.Fatal(err)
	}
	check("AddUser, nothing pending", []string{
		"lock root", "get root", "get super", "proof ?", "put super", "unlock root",
	}, [2]int64{1, 3}, func() error {
		return vol.AddUser("dave", dave.PublicKey)
	})
	check("GrantAccess, nothing pending", []string{
		"lock root", "get root", "get super", "proof ?", "put super", "unlock root",
	}, [2]int64{1, 4}, func() error {
		_, err := vol.GrantAccess(offer, "erin", erin.PublicKey, owner)
		return err
	})
	check("SetACL grant, nothing pending", []string{
		"lock root", "get root", "get dir", "get dir", "put dir", "unlock root",
	}, [2]int64{1, 2}, func() error {
		return vol.SetACL("/a", "carol", nexus.ReadWrite)
	})
	check("SetACL revoke after it", []string{
		"lock root", "get root", "get dir", "get dir",
		"put dir", "update(3)", "put root", "unlock root",
	}, [2]int64{1, 3}, func() error {
		return vol.SetACL("/b", "carol", nexus.ReadOnly)
	})
	check("GrantAccess to a member already in the table", []string{
		"lock root", "get root", "get super", "proof ?", "unlock root",
	}, [2]int64{1, 4}, func() error {
		_, err := vol.GrantAccess(offer, "erin", erin.PublicKey, owner)
		return err
	})
	// A drain of a waiting leaf alone knows its batch before the root's
	// re-read, and stages its update in that exit.
	if err := vol.SetACL("/b", "carol", nexus.ReadWrite); err != nil {
		t.Fatal(err)
	}
	check("SyncMetadata after a widening grant", []string{
		"lock root", "get root", "update(1)", "put root", "unlock root",
	}, [2]int64{1, 2}, fs.Sync)
}

// barrierRowsWithPendingMetadata pins the barrier ops made while a remove
// waits in the dirty set — a rename, a hardlink, the unlink of a file with
// other links (then a sync), SetACL, AddUser, RemoveUser and GrantAccess,
// to a new member and to one already in the table.
// Each is one commit with the drain (DESIGN.md §12.4): one root lock, one
// root re-read and one root put, where draining first and then committing
// the op's own change made two of each. The ops that rewrite a directory
// holding the pending remove put it once.
func barrierRowsWithPendingMetadata(t *testing.T, client *nexus.Client, owner nexus.Identity, vol *nexus.Volume, fs *nexus.FS,
	content func(byte) []byte, check func(string, []string, [2]int64, func() error)) {
	t.Helper()
	for i := range 8 {
		p := fmt.Sprintf("/a/r%d", i)
		if err := fs.WriteFile(p, content('r')); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.ReadFile("/b/h"); err != nil {
		t.Fatal(err)
	}
	bob, err := nexus.NewIdentity("bob")
	if err != nil {
		t.Fatal(err)
	}
	carol, err := nexus.NewIdentity("carol")
	if err != nil {
		t.Fatal(err)
	}
	offer, err := client.CreateShareOffer(carol)
	if err != nil {
		t.Fatal(err)
	}
	removes := 0
	withPending := func(what string, want []string, crossings [2]int64, op func() error) {
		t.Helper()
		if err := fs.Remove(fmt.Sprintf("/a/r%d", removes)); err != nil {
			t.Fatal(err)
		}
		removes++
		check(what+", with pending metadata", want, crossings, op)
	}
	withPending("rename in the directory of the pending remove", []string{
		"get dir", "lock root", "get root", "get dir", "proof dir", "get dir",
		"put dir", "delete data", "delete fn", "update(2)", "put root", "unlock root",
	}, [2]int64{1, 4}, func() error {
		return fs.Rename("/a/k", "/a/k2")
	})
	withPending("hardlink", []string{
		"get dir", "get dir", "get dir", "get dir", "lock fn", "lock root", "get root", "get dir", "proof dir",
		"get dir", "get dir", "get dir", "get dir", "get fn",
		"put fn", "put dir", "put dir", "delete data", "delete fn", "update(4)", "put root", "unlock root", "unlock fn",
	}, [2]int64{1, 4}, func() error {
		return fs.Hardlink("/b/h", "/b/h2")
	})
	withPending("remove of a file with other links, then sync", []string{
		"get dir", "get dir", "lock fn", "get fn", "lock root", "get root", "get dir", "proof dir", "get dir", "get dir",
		"put dir", "put fn", "put dir", "delete data", "delete fn", "update(4)", "put root", "unlock root", "unlock fn",
	}, [2]int64{2, 5}, func() error {
		if err := fs.Remove("/b/h2"); err != nil {
			return err
		}
		return fs.Sync()
	})
	withPending("AddUser", []string{
		"lock root", "get root", "get dir", "proof dir", "get super", "proof ?",
		"put super", "put dir", "delete data", "delete fn", "update(3)", "put root", "unlock root",
	}, [2]int64{1, 4}, func() error {
		return vol.AddUser("bob", bob.PublicKey)
	})
	withPending("SetACL", []string{
		"lock root", "get root", "get dir", "proof dir", "get dir", "get dir",
		"put dir", "put dir", "delete data", "delete fn", "update(3)", "put root", "unlock root",
	}, [2]int64{1, 3}, func() error {
		return vol.SetACL("/b", "bob", nexus.ReadOnly)
	})
	withPending("RemoveUser", []string{
		"lock root", "get root", "get dir", "proof dir", "get super", "proof ?",
		"put super", "put dir", "delete data", "delete fn", "update(3)", "put root", "unlock root",
	}, [2]int64{1, 4}, func() error {
		return vol.RemoveUser("bob")
	})
	withPending("GrantAccess", []string{
		"lock root", "get root", "get dir", "proof dir", "get super", "proof ?",
		"put super", "put dir", "delete data", "delete fn", "update(3)", "put root", "unlock root",
	}, [2]int64{1, 5}, func() error {
		_, err := vol.GrantAccess(offer, "carol", carol.PublicKey, owner)
		return err
	})
	// A member already in the table: the supernode is not put, but the
	// commit still drains, so the view the grant hands over is complete.
	withPending("GrantAccess to a member already in the table", []string{
		"lock root", "get root", "get dir", "proof dir", "get super", "proof ?",
		"put dir", "delete data", "delete fn", "update(2)", "put root", "unlock root",
	}, [2]int64{1, 5}, func() error {
		_, err := vol.GrantAccess(offer, "carol", carol.PublicKey, owner)
		return err
	})
}

// countingConn counts the bytes a connection sends and receives.
type countingConn struct {
	net.Conn
	up, down *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.up.Add(int64(n))
	return n, err
}

// TestBaselineRPCsPerOpClass pins what the "OpenAFS" baseline of the
// paper tables (plainfs over an AFS client) pays per op class: the AFS
// RPCs it makes and the bytes its connections move, up and down. The
// file is 4 KiB. Beside each row, unasserted, is what an OpenAFS client
// makes for the same op (one RPC of the AFS RPC set per op, and a status
// RPC moves no file bytes): the values the baseline is to be brought to.
func TestBaselineRPCsPerOpClass(t *testing.T) {
	srv := afs.NewServer(backend.NewMemStore())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	type client struct {
		fs       *plainfs.FS
		reg      *obs.Registry
		up, down atomic.Int64
	}
	dial := func() *client {
		c := &client{reg: obs.NewRegistry()}
		store, err := afs.Dial(l.Addr().String(), afs.ClientConfig{
			Obs: c.reg,
			Dial: func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return countingConn{conn, &c.up, &c.down}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		c.fs = plainfs.New(store)
		return c
	}
	a, b := dial(), dial()
	file := bytes.Repeat([]byte{'x'}, 4<<10)
	for _, row := range []struct {
		class    string
		c        *client
		op       func(fs *plainfs.FS) error
		rpcs     int64
		up, down int64
		aim      string // OpenAFS, unasserted
	}{
		{"mkdir", a, func(fs *plainfs.FS) error { return fs.Mkdir("/d") }, 4, 90, 87, "1 RPC (MakeDir)"},
		{"create", a, func(fs *plainfs.FS) error { return fs.Touch("/d/t") }, 4, 95, 93, "at most 2 RPCs (CreateFile)"},
		{"write", a, func(fs *plainfs.FS) error { return fs.WriteFile("/d/f", file) }, 3, 4169, 70, "1 RPC (StoreData), the file's bytes up"},
		{"stat cold", b, func(fs *plainfs.FS) error { _, err := fs.Stat("/d/f"); return err }, 1, 22, 4121, "1 RPC (FetchStatus), no file bytes"},
		{"stat warm", b, func(fs *plainfs.FS) error { _, err := fs.Stat("/d/f"); return err }, 0, 0, 0, "no RPC"},
		{"readdir", a, func(fs *plainfs.FS) error { _, err := fs.ReadDir("/d"); return err }, 3, 66, 69, "1 RPC (FetchData of the directory)"},
		{"rename", a, func(fs *plainfs.FS) error { return fs.Rename("/d/f", "/d/g") }, 4, 4191, 83, "1 RPC (Rename), no file bytes"},
		{"remove", a, func(fs *plainfs.FS) error { return fs.Remove("/d/g") }, 1, 22, 13, "1 RPC (RemoveFile)"},
	} {
		rpcs, up, down := row.c.reg.CounterValue("afs_rpcs_total"), row.c.up.Load(), row.c.down.Load()
		if err := row.op(row.c.fs); err != nil {
			t.Fatalf("%s: %v", row.class, err)
		}
		rpcs, up, down = row.c.reg.CounterValue("afs_rpcs_total")-rpcs, row.c.up.Load()-up, row.c.down.Load()-down
		if rpcs != row.rpcs || up != row.up || down != row.down {
			t.Errorf("%s: %d RPCs, %d B up, %d B down; want %d, %d, %d (OpenAFS: %s)",
				row.class, rpcs, up, down, row.rpcs, row.up, row.down, row.aim)
		}
	}
}
