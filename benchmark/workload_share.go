package main

import (
	"bytes"
	"errors"
	"fmt"

	"nexus"
)

// member is one user with access to the shared volume, on their own
// machine.
type member struct {
	id     nexus.Identity
	m      *machine
	sealed []byte
	vol    *nexus.Volume
}

// shareState is share_revoke's volume: the owner, the shared directory
// and the members currently live on their own machines, oldest first.
type shareState struct {
	owner    nexus.Identity
	ownerM   *machine
	vol      *nexus.Volume
	volume   nexus.VolumeID
	files    []genFile
	live     []*member
	joined   int
	userData int64
}

const sharedDir = "/shared-" + canary

// join admits a new member from a new machine: the Fig. 4 exchange with
// both messages published as files on the storage service under names
// never used before, then the two ACL grants the member needs to read.
// timed wraps the steps that belong to the join.
func (st *shareState) join(s *stack, timed func(*machine, func() error) error) (*member, error) {
	st.joined++
	name := fmt.Sprintf("member-%04d", st.joined)
	id, err := nexus.NewIdentity(name)
	if err != nil {
		return nil, err
	}
	m, err := s.newMachine(true, nil)
	if err != nil {
		return nil, err
	}
	mb := &member{id: id, m: m}
	offerName, grantName := "xchg-offer-"+name, "xchg-grant-"+name
	err = timed(m, func() error {
		offer, err := m.nx.CreateShareOffer(id)
		if err != nil {
			return err
		}
		if err := m.afs.Put(offerName, offer); err != nil {
			return err
		}
		published, err := st.ownerM.afs.Get(offerName)
		if err != nil {
			return err
		}
		grant, err := st.vol.GrantAccess(published, name, id.PublicKey, st.owner)
		if err != nil {
			return err
		}
		if err := st.ownerM.afs.Put(grantName, grant); err != nil {
			return err
		}
		if err := st.vol.SetACL("/", name, nexus.Lookup); err != nil {
			return err
		}
		if err := st.vol.SetACL(sharedDir, name, nexus.ReadOnly); err != nil {
			return err
		}
		received, err := m.afs.Get(grantName)
		if err != nil {
			return err
		}
		mb.sealed, _, err = m.nx.AcceptShareGrant(received, st.owner.PublicKey)
		return err
	})
	return mb, err
}

var shareRevoke = &workload{
	name: "share_revoke",
	why:  "the paper's headline claim: join (attested exchange, ACLs) and revoke (one supernode rewrite, group-key path rotation) at 256 members; revocation must stay small and constant",
	setUp: func(h *harness, s *stack) (any, error) {
		created, err := newVolume(h, s, false)
		if err != nil {
			return nil, err
		}
		st := &shareState{owner: created.owner, volume: created.volume}
		if err := created.fs.MkdirAll(sharedDir); err != nil {
			return nil, err
		}
		gen := newRNG(h.seed).fork(6)
		for i := 0; i < h.sz.shareFiles; i++ {
			f := genFile{path: fmt.Sprintf("%s/doc%02d-%s", sharedDir, i, canary), data: content(gen, 2<<10)}
			if err := created.fs.WriteFile(f.path, f.data); err != nil {
				return nil, err
			}
			st.files = append(st.files, f)
			st.userData += int64(len(f.data))
		}
		for i := 0; i < h.sz.shareMembers; i++ {
			id, err := nexus.NewIdentity(fmt.Sprintf("preloaded-%04d", i))
			if err != nil {
				return nil, err
			}
			if err := created.vol.AddUser(id.Name, id.PublicKey); err != nil {
				return nil, err
			}
		}
		if err := created.fs.Sync(); err != nil {
			return nil, err
		}
		if st.ownerM, st.vol, err = created.restart(s, true); err != nil {
			return nil, err
		}
		// Start with the live set full, so every timed round revokes.
		for i := 0; i < h.sz.shareLive; i++ {
			mb, err := st.join(s, func(_ *machine, fn func() error) error { return fn() })
			if err != nil {
				return nil, err
			}
			if mb.vol, err = mb.m.nx.Mount(mb.id, mb.sealed, st.volume); err != nil {
				return nil, err
			}
			st.live = append(st.live, mb)
		}
		return st, nil
	},
	run: func(h *harness, s *stack, state any) {
		st := state.(*shareState)
		for round := 0; round < h.sz.shareRounds; round++ {
			doc := st.files[round%len(st.files)]
			h.op(func() {
				mb, err := st.join(s, func(m *machine, fn func() error) error { return h.call("join", m, fn) })
				if err != nil {
					return
				}
				if h.call("mount", mb.m, func() error {
					var err error
					mb.vol, err = mb.m.nx.Mount(mb.id, mb.sealed, st.volume)
					return err
				}) != nil {
					return
				}
				h.readShared(mb, doc)
				st.live = append(st.live, mb)

				oldest := st.live[0]
				st.live = st.live[1:]
				before := s.backend.upBytes.Load() + s.backend.downBytes.Load()
				if h.call("revoke", st.ownerM, func() error { return st.vol.RemoveUser(oldest.id.Name) }) != nil {
					return
				}
				h.cur.revokes++
				h.cur.revokeNet += s.backend.upBytes.Load() + s.backend.downBytes.Load() - before
				_ = h.call("mount_denied", oldest.m, func() error { // failure is counted by call
					if _, err := oldest.m.nx.Mount(oldest.id, oldest.sealed, st.volume); err == nil {
						return errors.New("a revoked member mounted the volume")
					}
					return nil
				})
				// The revoked member's machine leaves: the set of connected
				// clients, and so the cost of a round, stays constant.
				_ = oldest.m.afs.Close() // tear-down
				h.readShared(st.live[0], doc)
			})
		}
		h.cur.live += st.userData
	},
	// Every member still on the list, and the owner, can read.
	verify: func(h *harness, s *stack, state any) {
		st := state.(*shareState)
		for _, mb := range append([]*member{{id: st.owner, vol: st.vol}}, st.live...) {
			for _, f := range st.files {
				data, err := mb.vol.FS().ReadFile(f.path)
				h.check(err == nil && bytes.Equal(data, f.data), "%s cannot read %s (%v)", mb.id.Name, f.path, err)
			}
		}
	},
}

// readShared is one member reading one shared document.
func (h *harness) readShared(mb *member, doc genFile) {
	var data []byte
	if h.call("read_file", mb.m, func() error {
		var err error
		data, err = mb.vol.FS().ReadFile(doc.path)
		return err
	}) == nil {
		h.expect(bytes.Equal(data, doc.data), "%s read %s: wrong content", mb.id.Name, doc.path)
	}
	h.moved(len(doc.data))
}
