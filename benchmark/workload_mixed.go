package main

import (
	"bytes"
	"fmt"
	"path"
	"sort"

	"nexus"
)

// mixState is local_mixed's volume and the generator's model of it.
type mixState struct {
	m    *machine
	fs   *nexus.FS
	gen  *rng
	dirs []string
	// The model: every live small file's content, an index for uniform
	// picks, and each directory's name set.
	files map[string][]byte
	live  []string
	at    map[string]int
	in    map[string]map[string]bool
	big   []string
	bigs  [][]byte
	next  int // next fresh file number
}

const (
	smallFile = 4 << 10
	bigFile   = 1 << 20
	appendLen = 256
)

func (st *mixState) add(p string, data []byte) {
	st.files[p] = data
	st.at[p] = len(st.live)
	st.live = append(st.live, p)
	st.in[path.Dir(p)][path.Base(p)] = true
}

func (st *mixState) drop(p string) {
	i, last := st.at[p], len(st.live)-1
	st.live[i] = st.live[last]
	st.at[st.live[i]] = i
	st.live = st.live[:last]
	delete(st.at, p)
	delete(st.files, p)
	delete(st.in[path.Dir(p)], path.Base(p))
}

func (st *mixState) pick() string { return st.live[st.gen.intn(len(st.live))] }

func (st *mixState) fresh() string {
	st.next++
	return path.Join(st.dirs[st.gen.intn(len(st.dirs))], fmt.Sprintf("m%06d-%s", st.next, canary))
}

func (st *mixState) namesIn(dir string) []string {
	out := make([]string, 0, len(st.in[dir]))
	for name := range st.in[dir] {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

var localMixed = &workload{
	name:  "local_mixed",
	local: true,
	why:   "no network to hide behind: metadata seal/open, (de)serialisation, Merkle proof service, ecall/ocall transitions and write-back bookkeeping are all of the time",
	setUp: func(h *harness, s *stack) (any, error) {
		st := &mixState{
			gen:   newRNG(h.seed).fork(5),
			files: make(map[string][]byte),
			at:    make(map[string]int),
			in:    make(map[string]map[string]bool),
		}
		owner, err := nexus.NewIdentity("owner")
		if err != nil {
			return nil, err
		}
		if st.m, err = s.newMachine(true, nil); err != nil {
			return nil, err
		}
		vol, _, err := st.m.nx.CreateVolume(owner)
		if err != nil {
			return nil, err
		}
		st.fs = vol.FS()
		bigDir := "/big-" + canary
		for i := 0; i < h.sz.mixDirs; i++ {
			st.dirs = append(st.dirs, fmt.Sprintf("/m%02d-%s", i, canary))
		}
		for _, dir := range append([]string{bigDir}, st.dirs...) {
			if err := st.fs.MkdirAll(dir); err != nil {
				return nil, err
			}
			st.in[dir] = make(map[string]bool)
		}
		for i := 0; i < h.sz.mixFiles; i++ {
			p, data := st.fresh(), content(st.gen, smallFile)
			if err := st.fs.WriteFile(p, data); err != nil {
				return nil, err
			}
			st.add(p, data)
		}
		for i := 0; i < h.sz.mixBig; i++ {
			p, data := path.Join(bigDir, fmt.Sprintf("b%02d-%s", i, canary)), content(st.gen, bigFile)
			if err := st.fs.WriteFile(p, data); err != nil {
				return nil, err
			}
			st.big, st.bigs = append(st.big, p), append(st.bigs, data)
		}
		return st, st.fs.Sync()
	},
	run: func(h *harness, s *stack, state any) {
		st := state.(*mixState)
		floor := h.sz.mixFiles / 2
		// Every hundred operations are one shuffled deck of the mix, so
		// the shares are exact and the per-op counts barely move with the
		// seed.
		var deck []int
		for i := 0; i < h.sz.mixOps; i++ {
			if i%100 == 0 {
				deck = shuffled(st.gen, 100)
			}
			mixedOp(h, st, deck[i%100], floor)
		}
		for _, data := range st.files {
			h.cur.live += int64(len(data))
		}
		h.cur.live += int64(len(st.big)) * bigFile
	},
	// The final state, re-read with every cache dropped, is the model's.
	verify: func(h *harness, s *stack, state any) {
		st := state.(*mixState)
		st.m.nx.Enclave().DropCaches()
		for _, p := range st.live {
			data, err := st.fs.ReadFile(p)
			h.check(err == nil && bytes.Equal(data, st.files[p]), "final state: %s differs from the model (%v)", p, err)
		}
		for _, dir := range st.dirs {
			entries, err := st.fs.ReadDir(dir)
			h.check(err == nil && sameNames(names(entries), st.namesIn(dir)), "final state: %s lists the wrong names (%v)", dir, err)
		}
	},
}

// mixedOp issues one operation of the mix: stat 30 %, read 25 %,
// overwrite 15 %, create 8 %, remove 8 %, rename 5 %, readdir 5 %,
// open+append+sync 2 %, 1 MiB write 1 %, 1 MiB read 1 %.
func mixedOp(h *harness, st *mixState, roll, floor int) {
	m, fs := st.m, st.fs
	if roll >= 78 && roll < 86 && len(st.live) <= floor {
		roll = 70 // keep the live set from draining: create instead of remove
	}
	switch {
	case roll < 30:
		p := st.pick()
		var entry nexus.DirEntry
		if h.call("stat", m, func() error {
			var err error
			entry, err = fs.Stat(p)
			return err
		}) == nil {
			h.expect(entry.Size == uint64(len(st.files[p])), "stat %s: size %d, want %d", p, entry.Size, len(st.files[p]))
		}
	case roll < 55:
		p := st.pick()
		var data []byte
		if h.call("read_file", m, func() error {
			var err error
			data, err = fs.ReadFile(p)
			return err
		}) == nil {
			h.expect(bytes.Equal(data, st.files[p]), "read %s: wrong content", p)
		}
		h.moved(len(st.files[p]))
	case roll < 78:
		p, data := st.pick(), content(st.gen, smallFile)
		if roll >= 70 {
			p = st.fresh() // create
		}
		if h.call("write_file", m, func() error { return fs.WriteFile(p, data) }) == nil {
			if _, known := st.files[p]; known {
				st.files[p] = data
			} else {
				st.add(p, data)
			}
		}
		h.moved(len(data))
	case roll < 86:
		p := st.pick()
		if h.call("remove", m, func() error { return fs.Remove(p) }) == nil {
			st.drop(p)
		}
	case roll < 91:
		from, to := st.pick(), st.fresh()
		if h.call("rename", m, func() error { return fs.Rename(from, to) }) == nil {
			data := st.files[from]
			st.drop(from)
			st.add(to, data)
		}
	case roll < 96:
		dir := st.dirs[st.gen.intn(len(st.dirs))]
		var entries []nexus.DirEntry
		if h.call("readdir", m, func() error {
			var err error
			entries, err = fs.ReadDir(dir)
			return err
		}) == nil {
			h.expect(sameNames(names(entries), st.namesIn(dir)), "readdir %s: wrong names", dir)
		}
	case roll < 98:
		p, tail := st.pick(), content(st.gen, appendLen)
		if h.call("open_sync", m, func() error {
			f, err := fs.Open(p, nexus.O_RDWR|nexus.O_APPEND)
			if err != nil {
				return err
			}
			if _, err := f.Write(tail); err != nil {
				_ = f.Close() // the write error is the one to report
				return err
			}
			if err := f.Sync(); err != nil {
				_ = f.Close() // the sync error is the one to report
				return err
			}
			return f.Close()
		}) == nil {
			st.files[p] = append(append([]byte(nil), st.files[p]...), tail...)
		}
		h.moved(len(tail))
	case roll < 99:
		i, data := st.gen.intn(len(st.big)), content(st.gen, bigFile)
		if h.call("write_big", m, func() error { return fs.WriteFile(st.big[i], data) }) == nil {
			st.bigs[i] = data
		}
		h.moved(bigFile)
	default:
		i := st.gen.intn(len(st.big))
		var data []byte
		if h.call("read_big", m, func() error {
			var err error
			data, err = fs.ReadFile(st.big[i])
			return err
		}) == nil {
			h.expect(bytes.Equal(data, st.bigs[i]), "read %s: wrong content", st.big[i])
		}
		h.moved(bigFile)
	}
}
