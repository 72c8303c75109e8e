package main

import (
	"bytes"
	"fmt"
	"time"

	"nexus"
	"nexus/internal/afs"
	"nexus/internal/netsim"
	"nexus/internal/plainfs"
)

// volumeState is what a tree workload's timed phase starts from.
type volumeState struct {
	tree     *genTree
	owner    nexus.Identity
	platform []byte // the owner's machine, reproducible across restarts
	sealed   []byte // the owner's sealed rootkey
	volume   nexus.VolumeID
	m        *machine      // the machine that created the volume
	vol      *nexus.Volume // the volume as that machine mounted it
	fs       *nexus.FS     // vol.FS()
}

// newVolume creates the owner and an empty volume from a new machine of
// the owner's: a timed one, or a set-up one that only populates.
func newVolume(h *harness, s *stack, timed bool) (*volumeState, error) {
	st := &volumeState{platform: platformSeed(h.seed, "owner")}
	var err error
	if st.owner, err = nexus.NewIdentity("owner"); err != nil {
		return nil, err
	}
	if st.m, err = s.newMachine(timed, st.platform); err != nil {
		return nil, err
	}
	vol, sealed, err := st.m.nx.CreateVolume(st.owner)
	if err != nil {
		return nil, err
	}
	st.sealed, st.volume, st.vol, st.fs = sealed, vol.ID(), vol, vol.FS()
	return st, nil
}

// restart is the owner's machine coming back with nothing cached: a
// fresh afs.Client and a fresh enclave that mounts the volume again.
func (st *volumeState) restart(s *stack, timed bool) (*machine, *nexus.Volume, error) {
	m, err := s.newMachine(timed, st.platform)
	if err != nil {
		return nil, nil, fmt.Errorf("restarting the owner's machine: %w", err)
	}
	vol, err := m.nx.Mount(st.owner, st.sealed, st.volume)
	if err != nil {
		return nil, nil, fmt.Errorf("re-mounting after restart: %w", err)
	}
	return m, vol, nil
}

// platformSeed derives a machine identity from the run's seed.
func platformSeed(seed uint64, who string) []byte {
	return []byte(fmt.Sprintf("benchmark-machine-%s-%d", who, seed))
}

// names lists the entry names of a directory listing.
func names(entries []nexus.DirEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

var treeCreate = &workload{
	name: "tree_create",
	why:  "metadata writes over the LAN: dirnode rewrites, filenode creates, write-back drains, root updates, lock RPCs; RTT-bound, chunk crypto idle",
	setUp: func(h *harness, s *stack) (any, error) {
		st, err := newVolume(h, s, true)
		if err != nil {
			return nil, err
		}
		st.tree = newTree(newRNG(h.seed), h.sz.treeDirs, h.sz.treeFiles)
		return st, nil
	},
	run: func(h *harness, s *stack, state any) {
		st := state.(*volumeState)
		for _, dir := range st.tree.dirs {
			_ = h.call("mkdir", st.m, func() error { return st.fs.MkdirAll(dir) }) // failure is counted by call
		}
		for _, f := range st.tree.files {
			_ = h.call("write_file", st.m, func() error { return st.fs.WriteFile(f.path, f.data) }) // failure is counted by call
			h.moved(len(f.data))
		}
		_ = h.call("sync", st.m, func() error { return st.fs.Sync() }) // failure is counted by call
		h.cur.live += st.tree.bytes
	},
	// Durability of acknowledged writes: the owner's machine restarts
	// (fresh afs.Client, fresh enclave, nothing cached) and re-reads a
	// seeded sample of what the timed phase wrote.
	verify: func(h *harness, s *stack, state any) {
		st := state.(*volumeState)
		_, vol, err := st.restart(s, false)
		if err != nil {
			h.check(false, "%v", err)
			return
		}
		fs := vol.FS()
		pick := newRNG(h.seed).fork(3)
		for i := 0; i < 32 && i < len(st.tree.files); i++ {
			f := st.tree.files[pick.intn(len(st.tree.files))]
			data, err := fs.ReadFile(f.path)
			h.check(err == nil && bytes.Equal(data, f.data), "after restart %s does not hold what was written (%v)", f.path, err)
		}
		for i := 0; i < 8; i++ {
			dir := st.tree.dirs[pick.intn(len(st.tree.dirs))]
			entries, err := fs.ReadDir(dir)
			h.check(err == nil && sameNames(names(entries), st.tree.names[dir]), "after restart %s lists the wrong names (%v)", dir, err)
		}
	},
	plain: func(h *harness, state any) ([]float64, error) {
		st := state.(*volumeState)
		var opMs []float64
		err := overPlain(func(_, lan *plainfs.FS, _ *afs.Client) error {
			for _, dir := range st.tree.dirs {
				if err := timeInto(&opMs, func() error { return lan.MkdirAll(dir) }); err != nil {
					return err
				}
			}
			for _, f := range st.tree.files {
				if err := timeInto(&opMs, func() error { return lan.WriteFile(f.path, f.data) }); err != nil {
					return err
				}
			}
			return nil
		})
		return opMs, err
	},
}

// warmWalks is the number of warm walks after cold_scan's cold one. Two
// put two thirds of the ops on the warm path, so the op median is firmly
// the warm cost and the tail firmly the cold one; with one, the median
// would sit on the boundary between the two.
const warmWalks = 2

var coldScan = &workload{
	name: "cold_scan",
	why:  "metadata reads: a new session mounts and walks a populated tree cold (loads, one proof per load, unwrap, cache fill), then walks it warm from every cache",
	setUp: func(h *harness, s *stack) (any, error) {
		st, err := newVolume(h, s, false)
		if err != nil {
			return nil, err
		}
		st.tree = newTree(newRNG(h.seed), h.sz.scanDirs, h.sz.scanFiles)
		for _, dir := range st.tree.dirs {
			if err := st.fs.MkdirAll(dir); err != nil {
				return nil, err
			}
		}
		for _, f := range st.tree.files {
			if err := st.fs.WriteFile(f.path, f.data); err != nil {
				return nil, err
			}
		}
		return st, st.fs.Sync()
	},
	run: func(h *harness, s *stack, state any) {
		st := state.(*volumeState)
		// A new session: the owner's machine restarted.
		m, err := s.newMachine(true, st.platform)
		if err != nil {
			h.check(false, "starting a session: %v", err)
			return
		}
		var vol *nexus.Volume
		if h.call("mount", m, func() error {
			var err error
			vol, err = m.nx.Mount(st.owner, st.sealed, st.volume)
			return err
		}) != nil {
			return
		}
		for walk := 0; walk <= warmWalks; walk++ {
			walkTree(h, m, vol.FS(), st.tree)
		}
		h.cur.live += st.tree.bytes
	},
	verify: func(*harness, *stack, any) {}, // every answer is checked as it is read
	plain: func(h *harness, state any) ([]float64, error) {
		st := state.(*volumeState)
		var opMs []float64
		err := overPlain(func(setup, lan *plainfs.FS, _ *afs.Client) error {
			for _, dir := range st.tree.dirs {
				if err := setup.MkdirAll(dir); err != nil {
					return err
				}
			}
			for _, f := range st.tree.files {
				if err := setup.WriteFile(f.path, f.data); err != nil {
					return err
				}
			}
			for walk := 0; walk <= warmWalks; walk++ {
				for _, dir := range append([]string{"/"}, st.tree.dirs...) {
					if err := timeInto(&opMs, func() error { _, err := lan.ReadDir(dir); return err }); err != nil {
						return err
					}
					for _, i := range st.tree.in[dir] {
						f := st.tree.files[i]
						if err := timeInto(&opMs, func() error { _, err := lan.Stat(f.path); return err }); err != nil {
							return err
						}
						if err := timeInto(&opMs, func() error { _, err := lan.ReadFile(f.path); return err }); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		return opMs, err
	},
}

// walkTree visits every directory and file of the tree: ReadDir, then
// Stat and ReadFile of each file, every answer checked.
func walkTree(h *harness, m *machine, fs *nexus.FS, tree *genTree) {
	for _, dir := range append([]string{"/"}, tree.dirs...) {
		var entries []nexus.DirEntry
		if h.call("readdir", m, func() error {
			var err error
			entries, err = fs.ReadDir(dir)
			return err
		}) == nil {
			h.expect(sameNames(names(entries), tree.names[dir]), "readdir %s: wrong names", dir)
		}
		for _, i := range tree.in[dir] {
			f := tree.files[i]
			var entry nexus.DirEntry
			if h.call("stat", m, func() error {
				var err error
				entry, err = fs.Stat(f.path)
				return err
			}) == nil {
				h.expect(!entry.IsDir && entry.Size == uint64(len(f.data)), "stat %s: size %d, want %d", f.path, entry.Size, len(f.data))
			}
			var data []byte
			if h.call("read_file", m, func() error {
				var err error
				data, err = fs.ReadFile(f.path)
				return err
			}) == nil {
				h.expect(bytes.Equal(data, f.data), "read %s: wrong content", f.path)
			}
			h.moved(len(f.data))
		}
	}
}

// overPlain runs fn against the reference: plain files over the same
// kind of AFS client and link, the unmodified system the paper compares
// with. fn gets an unsimulated client for set-up and the LAN client
// under measurement.
func overPlain(fn func(setup, lan *plainfs.FS, lanAFS *afs.Client) error) error {
	s, err := newStack(newTracer(false), false)
	if err != nil {
		return err
	}
	defer s.close()
	setupAFS, err := afs.Dial(s.setupNet, afs.ClientConfig{Profile: netsim.Loopback})
	if err != nil {
		return err
	}
	defer func() { _ = setupAFS.Close() }() // tear-down
	lanAFS, err := afs.Dial(s.lanAddr, afs.ClientConfig{Profile: netsim.LAN})
	if err != nil {
		return err
	}
	defer func() { _ = lanAFS.Close() }() // tear-down
	return fn(plainfs.New(setupAFS), plainfs.New(lanAFS), lanAFS)
}

// timeMs times one reference operation.
func timeMs(op func() error) (float64, error) {
	begin := time.Now()
	err := op()
	return float64(time.Since(begin)) / 1e6, err
}

// timeInto times one reference operation as one sample.
func timeInto(opMs *[]float64, op func() error) error {
	ms, err := timeMs(op)
	*opMs = append(*opMs, ms)
	return err
}
