package main

import (
	"bytes"
	"fmt"

	"nexus/internal/afs"
	"nexus/internal/plainfs"
)

// ioState is file_io's volume: a handful of large files, each with the
// content the generator last wrote to it.
type ioState struct {
	*volumeState
	paths []string
	model [][]byte
	gen   *rng
}

func slotPath(i int) string { return fmt.Sprintf("/io-%s/slot%02d-%s.bin", canary, i, canary) }

var fileIO = &workload{
	name: "file_io",
	why:  "large files over the LAN, the editor-save pattern: chunk crypto, pooled buffers, streaming encrypt-while-upload, scatter/gather frames, modelled bandwidth; metadata is ~1 % of the work",
	setUp: func(h *harness, s *stack) (any, error) {
		// The slots exist before the timed phase, so every timed write
		// is an overwrite and every cycle costs the same.
		vol, err := newVolume(h, s, false)
		if err != nil {
			return nil, err
		}
		st := &ioState{volumeState: vol, gen: newRNG(h.seed).fork(4)}
		if err := st.fs.MkdirAll("/io-" + canary); err != nil {
			return nil, err
		}
		for i := 0; i < h.sz.ioSlots; i++ {
			st.paths = append(st.paths, slotPath(i))
			st.model = append(st.model, content(st.gen, h.sz.ioBytes))
			if err := st.fs.WriteFile(st.paths[i], st.model[i]); err != nil {
				return nil, err
			}
		}
		if st.m, st.vol, err = st.restart(s, true); err != nil {
			return nil, err
		}
		st.fs = st.vol.FS()
		return st, nil
	},
	run: func(h *harness, s *stack, state any) {
		st := state.(*ioState)
		for cycle := 0; cycle < h.sz.ioCycles; cycle++ {
			slot := cycle % len(st.paths)
			fresh := content(st.gen, h.sz.ioBytes)
			h.op(func() {
				if h.call("write_big", st.m, func() error { return st.fs.WriteFile(st.paths[slot], fresh) }) == nil {
					st.model[slot] = fresh
				}
				// Untimed: forget everything cached so the read is cold.
				st.m.afs.FlushCache()
				st.m.nx.Enclave().DropCaches()
				var data []byte
				if h.call("read_big", st.m, func() error {
					var err error
					data, err = st.fs.ReadFile(st.paths[slot])
					return err
				}) == nil {
					h.expect(bytes.Equal(data, st.model[slot]), "read %s: wrong content", st.paths[slot])
				}
				// The editor-save pattern: one byte changes, the whole
				// file is written back.
				edited := append([]byte(nil), st.model[slot]...)
				edited[len(canary)+st.gen.intn(len(edited)-len(canary))] ^= 0x5a
				if h.call("edit_big", st.m, func() error { return st.fs.WriteFile(st.paths[slot], edited) }) == nil {
					st.model[slot] = edited
				}
				h.moved(3 * h.sz.ioBytes)
			})
		}
		h.cur.live += int64(len(st.paths)) * int64(h.sz.ioBytes)
	},
	// Durability: after a restart every slot holds its last acknowledged
	// write.
	verify: func(h *harness, s *stack, state any) {
		st := state.(*ioState)
		_, vol, err := st.restart(s, false)
		if err != nil {
			h.check(false, "%v", err)
			return
		}
		for i, p := range st.paths {
			data, err := vol.FS().ReadFile(p)
			h.check(err == nil && bytes.Equal(data, st.model[i]), "after restart %s does not hold what was written (%v)", p, err)
		}
	},
	plain: func(h *harness, state any) ([]float64, error) {
		st := state.(*ioState)
		var opMs []float64
		err := overPlain(func(setup, lan *plainfs.FS, lanAFS *afs.Client) error {
			if err := setup.MkdirAll("/io"); err != nil {
				return err
			}
			for slot := 0; slot < len(st.paths) && slot < h.sz.ioCycles; slot++ {
				p := fmt.Sprintf("/io/slot%02d", slot)
				if err := setup.WriteFile(p, st.model[slot]); err != nil {
					return err
				}
				ms, err := timeMs(func() error { return lan.WriteFile(p, st.model[slot]) })
				if err != nil {
					return err
				}
				lanAFS.FlushCache()
				read, err := timeMs(func() error { _, err := lan.ReadFile(p); return err })
				if err != nil {
					return err
				}
				edit, err := timeMs(func() error { return lan.WriteFile(p, st.model[slot]) })
				if err != nil {
					return err
				}
				opMs = append(opMs, ms+read+edit)
			}
			return nil
		})
		return opMs, err
	},
}
