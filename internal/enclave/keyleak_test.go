// The key-leak property (DESIGN.md §6, Properties K1–K4): a key the
// enclave holds leaves it only sealed or wrapped. A seeded two-client op
// stream runs through the public API over a store that tampers with,
// rolls back, hides and fails objects and calls, and every byte that
// leaves the enclave is recorded on its way out:
//
//   - store object names and payloads, proof requests and freshness
//     batches, at the ocall boundary (leakStore);
//   - every error string and every value an ecall returns;
//   - span names and tags, with both clients' tracers on;
//   - both registries' Prometheus exposition.
//
// After every call the keys are collected: the rootkey and the private
// exchange keys through a test-only hook (export_test.go), and, decoded
// from the store with the rootkey, every filenode's content key and the
// group tree's root and member secrets, so keys that rotate are tracked
// too. No key may appear in any recorded byte: raw, as hex in either
// case, as base64 in either alphabet at any byte alignment, or as the
// decimal list %v prints for a []byte.
//
// NEXUS_CHAOS_SEED=<n> replays a seed; `make chaos` runs seeds 1, 7 and
// 42 under the race detector.
package enclave_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"path"
	"slices"
	"strings"
	"sync"
	"testing"

	"nexus"
	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/obs"
	"nexus/internal/uuid"
	"nexus/internal/vfs"
)

// trackedKey is one key the property searches for, with the DESIGN.md §6
// property that says where it may go.
type trackedKey struct {
	property, name string
	key            []byte
}

// egress is one run of bytes that left the enclave, and where it left.
type egress struct {
	where string
	b     []byte
}

// leakRecorder collects what leaves the enclave and the keys to look for.
type leakRecorder struct {
	mu   sync.Mutex
	out  []egress
	keys map[string]trackedKey // by key bytes
}

func (r *leakRecorder) emit(where string, b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out = append(r.out, egress{where, bytes.Clone(b)})
}

func (r *leakRecorder) emitf(where, format string, args ...any) {
	r.emit(where, []byte(fmt.Sprintf(format, args...)))
}

// track adds a key to search for. An all-zero key is not one: the
// filenode of a file sealed inline carries a zero content key.
func (r *leakRecorder) track(property, name string, key []byte) {
	if bytes.Count(key, []byte{0}) == len(key) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.keys[string(key)]; !ok {
		r.keys[string(key)] = trackedKey{property, name, bytes.Clone(key)}
	}
}

// keyForms returns the printed forms of key the property searches for,
// by name. Where a key starts in a base64 run depends on its offset
// modulo 3 in the encoded buffer, so each offset contributes the
// characters the key's bytes alone determine.
func keyForms(key []byte) map[string][]byte {
	lower := hex.EncodeToString(key)
	forms := map[string][]byte{
		"raw":                    key,
		"as lowercase hex":       []byte(lower),
		"as uppercase hex":       []byte(strings.ToUpper(lower)),
		"as a decimal byte list": []byte(strings.Trim(fmt.Sprint(key), "[]")),
	}
	for off := 0; off < 3; off++ {
		for alphabet, enc := range map[string]*base64.Encoding{"standard": base64.RawStdEncoding, "URL": base64.RawURLEncoding} {
			s := enc.EncodeToString(append(make([]byte, off), key...))
			forms[fmt.Sprintf("as %s base64 (offset %d)", alphabet, off)] = []byte(s[(8*off+5)/6 : 8*(off+len(key))/6])
		}
	}
	return forms
}

// leakWindow is the prefix length the search indexes forms by; every form
// of every tracked key (16 bytes or more) is longer.
const leakWindow = 8

// leaks returns one line per (key, egress record) where a form of the key
// appears.
func (r *leakRecorder) leaks() []string {
	type needle struct {
		key  int
		form string
		b    []byte
	}
	var keys []trackedKey
	index := make(map[string][]needle)
	for _, k := range r.keys {
		for form, b := range keyForms(k.key) {
			index[string(b[:leakWindow])] = append(index[string(b[:leakWindow])], needle{len(keys), form, b})
		}
		keys = append(keys, k)
	}
	var found []string
	for _, e := range r.out {
		reported := make(map[int]bool)
		for i := 0; i+leakWindow <= len(e.b); i++ {
			for _, n := range index[string(e.b[i:i+leakWindow])] {
				if !reported[n.key] && bytes.HasPrefix(e.b[i:], n.b) {
					reported[n.key] = true
					k := keys[n.key]
					found = append(found, fmt.Sprintf("Property %s violated: %s leaves the enclave %s in %s",
						k.property, k.name, n.form, e.where))
				}
			}
		}
	}
	return found
}

// fault is what the malicious store does to one call.
type fault string

const (
	faultFail      fault = "fail"      // the store is unreachable
	faultInterrupt fault = "interrupt" // a put lands, but its reply is lost
	faultTamper    fault = "tamper"    // one bit of a served object or proof flips
	faultRollback  fault = "roll back" // a served object is the one its last put replaced
	faultMissing   fault = "hide"      // a served object is missing
	faultSwap      fault = "swap"      // a served object is another of its kind the store holds
)

// attack is one fault on one kind of store call: on one call, or on
// every call from then on (the enclave retries a failed proof once).
type attack struct {
	kind  fault
	op    string // get, put, delete, lock, proof, update
	every bool
}

var (
	readAttacks = []attack{
		{faultFail, "get", false}, {faultTamper, "get", false}, {faultRollback, "get", false}, {faultMissing, "get", false},
		{faultSwap, "get", false}, {faultFail, "proof", false}, {faultTamper, "proof", false}, {faultFail, "proof", true}, {faultTamper, "proof", true},
	}
	writeAttacks = []attack{
		{faultFail, "put", false}, {faultInterrupt, "put", false}, {faultFail, "lock", false}, {faultFail, "delete", false},
		{faultFail, "update", false}, {faultTamper, "update", false}, {faultTamper, "get", false},
	}
	allAttacks = append(append([]attack(nil), readAttacks...), writeAttacks...)
)

// adversary is the malicious store both clients share. Once armed it
// spoils the n-th call of one kind from then on: that call, or that call
// and every one after it until disarmed.
type adversary struct {
	mu     sync.Mutex
	armed  *attack
	skip   int
	fired  int
	before map[string][]byte // the payload each name's last put replaced
	last   map[string][]byte
	recent []string // names put, most recent last
}

func (a *adversary) arm(at attack, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.armed, a.skip = &at, n
}

// disarm reports whether the armed attack fired.
func (a *adversary) disarm() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	fired := a.armed == nil || a.skip < 0
	a.armed = nil
	return fired
}

// strike returns the fault to apply to this call of op, if any.
func (a *adversary) strike(op string) fault {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.armed == nil || a.armed.op != op {
		return ""
	}
	if a.skip > 0 {
		a.skip--
		return ""
	}
	kind := a.armed.kind
	if a.armed.every {
		a.skip = -1
	} else {
		a.armed = nil
	}
	a.fired++
	return kind
}

func (a *adversary) stored(name string, data []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.before[name], a.last[name] = a.last[name], bytes.Clone(data)
	a.recent = append(a.recent, name)
}

// swapped returns the payload most recently put under another name that
// holds the same kind of object as data: the same metadata type, or
// file content.
func (a *adversary) swapped(name string, data []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	kind := func(b []byte) metadata.ObjType {
		p, _ := metadata.PeekPreamble(b)
		return p.Type
	}
	for i := len(a.recent) - 1; i >= 0; i-- {
		if other := a.last[a.recent[i]]; a.recent[i] != name && kind(other) == kind(data) {
			return bytes.Clone(other)
		}
	}
	return nil
}

func (a *adversary) replaced(name string) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return bytes.Clone(a.before[name])
}

func flipBit(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	b = bytes.Clone(b)
	b[len(b)/2] ^= 1
	return b
}

// leakStore is one client's store at its enclave's ocall boundary: it
// records everything the enclave hands it and lets the adversary spoil
// what goes back.
type leakStore struct {
	enclave.FreshnessProofStore
	rec *leakRecorder
	adv *adversary
}

// Instrument lets the untrusted store's own spans join the client's
// registry, as they would without the interposer.
func (s *leakStore) Instrument(reg *obs.Registry) {
	if in, ok := s.FreshnessProofStore.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
}

func (s *leakStore) GetVersioned(name string) ([]byte, uint64, error) {
	s.rec.emit("the name of a store get", []byte(name))
	kind := s.adv.strike("get")
	switch kind {
	case faultFail:
		return nil, 0, backend.ErrUnavailable
	case faultMissing:
		return nil, 0, backend.ErrNotExist
	}
	data, version, err := s.FreshnessProofStore.GetVersioned(name)
	switch {
	case err != nil:
	case kind == faultTamper:
		data = flipBit(data)
	case kind == faultRollback:
		if old := s.adv.replaced(name); old != nil {
			data = old
		}
	case kind == faultSwap:
		if other := s.adv.swapped(name, data); other != nil {
			data = other
		}
	}
	return data, version, err
}

func (s *leakStore) PutVersioned(name string, data []byte) (uint64, error) {
	s.rec.emit("the name of a store put", []byte(name))
	s.rec.emit("the payload put to "+name, data)
	kind := s.adv.strike("put")
	if kind == faultFail {
		return 0, backend.ErrUnavailable
	}
	version, err := s.FreshnessProofStore.PutVersioned(name, data)
	if err != nil {
		return 0, err
	}
	s.adv.stored(name, data)
	if kind == faultInterrupt {
		return 0, backend.ErrInterrupted
	}
	return version, nil
}

func (s *leakStore) Delete(name string) error {
	s.rec.emit("the name of a store delete", []byte(name))
	if s.adv.strike("delete") == faultFail {
		return backend.ErrUnavailable
	}
	return s.FreshnessProofStore.Delete(name)
}

func (s *leakStore) Lock(name string) (func(), error) {
	s.rec.emit("the name of a store lock", []byte(name))
	if s.adv.strike("lock") == faultFail {
		return nil, backend.ErrUnavailable
	}
	return s.FreshnessProofStore.Lock(name)
}

func (s *leakStore) FreshnessProof(id uuid.UUID, epoch uint64) ([]byte, error) {
	s.rec.emitf("a freshness proof request", "%s@%d", id, epoch)
	kind := s.adv.strike("proof")
	if kind == faultFail {
		return nil, backend.ErrUnavailable
	}
	proof, err := s.FreshnessProofStore.FreshnessProof(id, epoch)
	if err == nil && kind == faultTamper {
		proof = flipBit(proof)
	}
	return proof, err
}

func (s *leakStore) FreshnessUpdate(epoch uint64, updates []merkle.LeafUpdate) ([][]byte, error) {
	s.rec.emitf("a freshness batch", "%d %+v", epoch, updates)
	kind := s.adv.strike("update")
	if kind == faultFail {
		return nil, backend.ErrUnavailable
	}
	proofs, err := s.FreshnessProofStore.FreshnessUpdate(epoch, updates)
	if err == nil && kind == faultTamper && len(proofs) > 0 {
		proofs[0] = flipBit(proofs[0])
	}
	return proofs, err
}

// leakStream is the op stream: an owner client and a peer client, on two
// platforms, over one store.
type leakStream struct {
	t   *testing.T
	rng *rand.Rand
	rec *leakRecorder
	adv *adversary
	mem *backend.MemStore

	owner, peer       *nexus.Client
	ownerVol, peerVol *nexus.Volume
	volID             nexus.VolumeID
	ids               map[string]nexus.Identity
	sealed            map[string][]byte // each user's sealed rootkey
	files             []string          // paths written and not removed
	rootKey           []byte
	decoded           map[[32]byte]bool // store objects already scanned
}

func newLeakStream(t *testing.T, seed int64) *leakStream {
	t.Helper()
	ias, err := nexus.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	s := &leakStream{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		rec:     &leakRecorder{keys: make(map[string]trackedKey)},
		adv:     &adversary{before: make(map[string][]byte), last: make(map[string][]byte)},
		mem:     backend.NewMemStore(),
		ids:     make(map[string]nexus.Identity),
		sealed:  make(map[string][]byte),
		decoded: make(map[[32]byte]bool),
	}
	shared := vfs.NewVersionedStore(s.mem)
	client := func() *nexus.Client {
		c, err := nexus.NewClient(nexus.ClientConfig{
			Store: &leakStore{FreshnessProofStore: vfs.NewFreshnessStore(shared), rec: s.rec, adv: s.adv},
			IAS:   ias,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Obs().Tracer().Enable()
		return c
	}
	s.owner, s.peer = client(), client()
	for _, name := range []string{"owen", "alice", "carol", "dave", "mallory"} {
		if s.ids[name], err = nexus.NewIdentity(name); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// do runs one call through the public API, records its error string,
// and collects spans and keys.
func (s *leakStream) do(what string, fn func() error) error {
	err := fn()
	if err != nil {
		s.rec.emit("the error of "+what, []byte(err.Error()))
	}
	s.collect(what)
	return err
}

// must fails the test when a step the stream builds on fails.
func (s *leakStream) must(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Fatal(err)
	}
}

// result records a value an ecall returned.
func (s *leakStream) result(what string, v any) {
	if b, ok := v.([]byte); ok {
		s.rec.emit("the result of "+what, b)
		return
	}
	s.rec.emitf("the result of "+what, "%+v", v)
}

func (s *leakStream) emitSpan(what string, sp *obs.Span) {
	s.rec.emit("a span name during "+what, []byte(sp.Name))
	for _, tag := range sp.Tags {
		s.rec.emitf("span "+sp.Name+" during "+what, "%s=%s", tag.Key, tag.Value)
	}
	for _, c := range sp.Children {
		s.emitSpan(what, c)
	}
}

// collect drains both tracers and tracks every key in reach.
func (s *leakStream) collect(what string) {
	for _, c := range []struct {
		name   string
		client *nexus.Client
	}{{"owner", s.owner}, {"peer", s.peer}} {
		for _, root := range c.client.Obs().Tracer().Take() {
			s.emitSpan(what, root)
		}
		rootKey, exchange := c.client.Enclave().KeysForLeakCheck()
		if rootKey != nil {
			s.rootKey = rootKey
			s.rec.track("K1", "the volume rootkey", rootKey)
		}
		for i, k := range exchange {
			s.rec.track("K4", fmt.Sprintf("the %s client's %s exchange key", c.name, []string{"long-term", "pending mutual"}[i]), k)
		}
	}
	s.scanStore()
}

// scanStore opens every sealed object on the store with the rootkey and
// tracks the keys inside: content keys (K2) and group secrets (K3).
func (s *leakStream) scanStore() {
	if s.rootKey == nil {
		return
	}
	names, err := s.mem.List("")
	if err != nil {
		s.t.Fatal(err)
	}
	for _, name := range names {
		blob, err := s.mem.Get(name)
		if err != nil {
			continue
		}
		sum := sha256.Sum256(blob)
		if s.decoded[sum] {
			continue
		}
		s.decoded[sum] = true
		p, body, err := metadata.Open(s.rootKey, blob)
		if err != nil {
			continue // data objects, the freshness tree, the framed root
		}
		switch p.Type {
		case metadata.TypeFilenode:
			if f, err := metadata.DecodeFilenodeBody(p.UUID, p.Parent, body); err == nil {
				s.rec.track("K2", "the content key of file "+p.UUID.String(), f.ContentKey[:])
			}
		case metadata.TypeSupernode:
			super, err := metadata.DecodeSupernodeBody(body)
			if err != nil || super.GroupTree == nil {
				continue
			}
			tree := super.GroupTree
			s.rec.track("K3", fmt.Sprintf("the group root secret of epoch %d", tree.Epoch()), tree.RootSecret())
			for leaf := 0; leaf < tree.Leaves(); leaf++ {
				for _, id := range tree.Members(uint32(leaf)) {
					if secret, err := tree.Secret(id); err == nil {
						s.rec.track("K3", fmt.Sprintf("user %d's member secret of epoch %d", id, tree.Epoch()), secret)
					}
				}
			}
		}
	}
}

// mount authenticates id on c with a sealed rootkey and, on success,
// makes the mounted volume c's.
func (s *leakStream) mount(what string, c *nexus.Client, id nexus.Identity, sealed []byte) error {
	return s.do(what, func() error {
		vol, err := c.Mount(id, sealed, s.volID)
		if err != nil {
			return err
		}
		if c == s.owner {
			s.ownerVol = vol
		} else {
			s.peerVol = vol
		}
		return nil
	})
}

// share runs one rootkey exchange from the owner to user on the peer
// client: asynchronous (Fig. 4) or mutually attested (§VI-B).
func (s *leakStream) share(user string, mutual bool) error {
	id, owen := s.ids[user], s.ids["owen"]
	var offer, grant []byte
	if err := s.do("the offer of "+user, func() (err error) {
		if mutual {
			offer, err = s.peer.BeginMutualShare(id)
		} else {
			offer, err = s.peer.CreateShareOffer(id)
		}
		s.result("the offer of "+user, offer)
		return err
	}); err != nil {
		return err
	}
	if err := s.do("the grant to "+user, func() (err error) {
		if mutual {
			grant, err = s.ownerVol.GrantAccessMutual(offer, user, id.PublicKey, owen)
		} else {
			grant, err = s.ownerVol.GrantAccess(offer, user, id.PublicKey, owen)
		}
		s.result("the grant to "+user, grant)
		return err
	}); err != nil {
		return err
	}
	return s.do("the acceptance of "+user+"'s grant", func() error {
		accept := s.peer.AcceptShareGrant
		if mutual {
			accept = s.peer.AcceptMutualShareGrant
		}
		sealed, _, err := accept(grant, owen.PublicKey)
		s.result("the acceptance of "+user+"'s grant", sealed)
		if err == nil {
			s.sealed[user] = sealed
		}
		return err
	})
}

// write writes a file of a random size on either side of the inline cap.
func (s *leakStream) write(fs *nexus.FS, p string) error {
	size := s.rng.Intn(metadata.MaxInlineSize + 1)
	if s.rng.Intn(2) == 0 {
		size = metadata.MaxInlineSize + 1 + s.rng.Intn(16<<10)
	}
	data := make([]byte, size)
	s.rng.Read(data)
	err := s.do(fmt.Sprintf("writing %d B to %s", size, p), func() error {
		if err := fs.MkdirAll(path.Dir(p)); err != nil {
			return err
		}
		return fs.WriteFile(p, data)
	})
	if err == nil && !slices.Contains(s.files, p) {
		s.files = append(s.files, p)
	}
	return err
}

func (s *leakStream) forget(p string) {
	s.files = slices.DeleteFunc(s.files, func(f string) bool { return f == p })
}

func (s *leakStream) randomFile() string {
	if len(s.files) == 0 {
		return "/d0/f0"
	}
	return s.files[s.rng.Intn(len(s.files))]
}

// setUp creates the volume, shares it with alice through the
// asynchronous exchange and gives her /shared. Nothing is attacked yet.
func (s *leakStream) setUp() {
	owen, alice := s.ids["owen"], s.ids["alice"]
	s.must(s.do("creating the volume", func() error {
		vol, sealed, err := s.owner.CreateVolume(owen)
		if err != nil {
			return err
		}
		s.ownerVol, s.volID, s.sealed["owen"] = vol, vol.ID(), sealed
		s.result("creating the volume", sealed)
		return nil
	}))
	s.must(s.share("alice", false))
	s.must(s.mount("alice's mount", s.peer, alice, s.sealed["alice"]))
	s.must(s.do("mkdir /shared", func() error { return s.ownerVol.FS().MkdirAll("/shared") }))
	s.must(s.do("an ACL on /", func() error { return s.ownerVol.SetACL("/", "alice", nexus.Lookup) }))
	s.must(s.do("an ACL on /shared", func() error { return s.ownerVol.SetACL("/shared", "alice", nexus.ReadWrite) }))
}

// randomOps runs n random operations, a third of them under an attack
// armed at one of the next few store calls of its kind.
func (s *leakStream) randomOps(n int) {
	for i := 0; i < n; i++ {
		if s.rng.Intn(3) == 0 {
			s.adv.arm(allAttacks[s.rng.Intn(len(allAttacks))], s.rng.Intn(4))
		}
		s.randomOp()
		s.adv.disarm()
	}
}

func (s *leakStream) randomOp() {
	owner, peer := s.ownerVol.FS(), s.peerVol.FS()
	dirs := []string{"/", "/d0", "/d1", "/d2", "/shared"}
	switch s.rng.Intn(12) {
	case 0, 1:
		_ = s.write(owner, fmt.Sprintf("/d%d/f%d", s.rng.Intn(3), s.rng.Intn(4)))
	case 2:
		_ = s.write(peer, fmt.Sprintf("/shared/g%d", s.rng.Intn(3)))
	case 3, 4:
		fs, who := owner, "the owner"
		if s.rng.Intn(2) == 0 {
			fs, who = peer, "alice"
		}
		p := s.randomFile()
		what := who + " reading " + p
		_ = s.do(what, func() error {
			data, err := fs.ReadFile(p)
			s.result(what, data)
			return err
		})
	case 5:
		d := dirs[s.rng.Intn(len(dirs))]
		_ = s.do("listing "+d, func() error {
			entries, err := owner.ReadDir(d)
			s.result("listing "+d, entries)
			return err
		})
	case 6:
		p := s.randomFile()
		_ = s.do("stat "+p, func() error {
			entry, err := peer.Stat(p)
			s.result("stat "+p, entry)
			return err
		})
	case 7:
		p := s.randomFile()
		if s.do("removing "+p, func() error { return owner.Remove(p) }) == nil {
			s.forget(p)
		}
	case 8:
		from, to := s.randomFile(), fmt.Sprintf("/d%d/r%d", s.rng.Intn(3), s.rng.Intn(3))
		if s.do("renaming "+from+" to "+to, func() error { return owner.Rename(from, to) }) == nil {
			s.forget(from)
			s.forget(to)
			s.files = append(s.files, to)
		}
	case 9:
		rights := []nexus.Rights{nexus.NoRights, nexus.ReadOnly, nexus.ReadWrite, nexus.AllRights}[s.rng.Intn(4)]
		_ = s.do("an ACL on /shared", func() error { return s.ownerVol.SetACL("/shared", "alice", rights) })
	case 10:
		_ = s.do("the owner's sync", owner.Sync)
		_ = s.do("alice's sync", peer.Sync)
	case 11:
		s.owner.Enclave().DropCaches()
		_ = s.mount("the owner's remount", s.owner, s.ids["owen"], s.sealed["owen"])
	}
}

// exchangesAndRevocation shares the volume with carol through the mutual
// exchange, enrolls dave in the key tree, revokes both, and tries the
// mounts the enclave must refuse.
func (s *leakStream) exchangesAndRevocation() {
	alice, carol, dave, mallory := s.ids["alice"], s.ids["carol"], s.ids["dave"], s.ids["mallory"]
	s.must(s.share("carol", true))
	s.must(s.mount("carol's mount", s.peer, carol, s.sealed["carol"]))
	// An exchange admits its user to the table but not to the key tree,
	// so the revocation that rotates group keys is that of dave, whom
	// AddUser enrolls.
	s.must(s.do("adding dave", func() error { return s.ownerVol.AddUser("dave", dave.PublicKey) }))
	s.must(s.do("a group ACL on /shared", func() error {
		leaf, err := s.ownerVol.UserGroup("dave")
		if err != nil {
			return err
		}
		return s.ownerVol.SetGroupACL("/shared", leaf, nexus.ReadOnly)
	}))
	_ = s.do("carol listing /shared", func() error {
		entries, err := s.peerVol.FS().ReadDir("/shared")
		s.result("carol listing /shared", entries)
		return err
	})
	s.must(s.do("the sealed exchange key", func() error {
		sealed, err := s.peer.Enclave().SealedExchangeKey()
		s.result("the sealed exchange key", sealed)
		return err
	}))
	s.must(s.do("removing carol", func() error { return s.ownerVol.RemoveUser("carol") }))
	s.must(s.do("removing dave", func() error { return s.ownerVol.RemoveUser("dave") }))
	forged := nexus.Identity{Name: "alice", PublicKey: alice.PublicKey, PrivateKey: mallory.PrivateKey}
	for _, m := range []struct {
		what   string
		id     nexus.Identity
		sealed []byte
	}{
		{"carol's mount after her revocation", carol, s.sealed["carol"]},
		{"mallory's mount", mallory, s.sealed["alice"]},
		{"a mount with a bad signature", forged, s.sealed["alice"]},
	} {
		if err := s.mount(m.what, s.peer, m.id, m.sealed); !errors.Is(err, enclave.ErrBadAuth) {
			s.t.Errorf("%s: err = %v, want ErrBadAuth", m.what, err)
		}
	}
	s.must(s.mount("alice's remount", s.peer, alice, s.sealed["alice"]))
}

// hostileCalls makes the calls the enclave must refuse whatever the
// store does: admin calls by a non-owner, forged and mangled exchange
// messages, a sealed rootkey from another platform, and paths the
// namespace rejects.
func (s *leakStream) hostileCalls() {
	owen, alice, mallory := s.ids["owen"], s.ids["alice"], s.ids["mallory"]
	owner, peer := s.ownerVol.FS(), s.peerVol.FS()
	forgedAlice := nexus.Identity{Name: "alice", PublicKey: alice.PublicKey, PrivateKey: mallory.PrivateKey}
	var forgedOffer, offer, grant []byte
	s.must(s.do("the offers and the grant to mangle", func() (err error) {
		if forgedOffer, err = s.peer.CreateShareOffer(forgedAlice); err != nil {
			return err
		}
		if offer, err = s.peer.CreateShareOffer(alice); err != nil {
			return err
		}
		grant, err = s.ownerVol.GrantAccess(offer, "alice", alice.PublicKey, owen)
		s.result("the offers and the grant to mangle", bytes.Join([][]byte{forgedOffer, offer, grant}, nil))
		return err
	}))
	mangledOffer := func(mangle func(*enclave.Offer)) []byte {
		o, err := enclave.DecodeOffer(offer)
		s.must(err)
		mangle(o)
		o.UserSig = ed25519.Sign(alice.PrivateKey, o.Quote.Encode())
		return o.Encode()
	}
	// The owner's identity key lives outside the enclave and signs
	// whatever it is handed, so a mangled grant can carry a good signature.
	mangledGrant := func(mangle func(*enclave.Grant)) []byte {
		g, err := enclave.DecodeGrant(grant)
		s.must(err)
		mangle(g)
		g.OwnerSig = nil
		enc := g.Encode() // the signed body, then the empty signature, both length-prefixed
		g.OwnerSig = ed25519.Sign(owen.PrivateKey, enc[4:len(enc)-4])
		return g.Encode()
	}
	s.must(s.do("a file in /full", func() error {
		if err := owner.MkdirAll("/full"); err != nil {
			return err
		}
		return owner.WriteFile("/full/f", []byte("f"))
	}))
	calls := []struct {
		what string
		fn   func() error
	}{
		{"alice adding mallory", func() error { return s.peerVol.AddUser("mallory", mallory.PublicKey) }},
		{"alice removing owen", func() error { return s.peerVol.RemoveUser("owen") }},
		{"alice granting", func() error { _, err := s.peerVol.GrantAccess(offer, "mallory", mallory.PublicKey, alice); return err }},
		{"a grant on a forged offer", func() error {
			_, err := s.ownerVol.GrantAccess(forgedOffer, "alice", alice.PublicKey, owen)
			return err
		}},
		{"a grant on a garbage offer", func() error {
			_, err := s.ownerVol.GrantAccess([]byte("offer"), "alice", alice.PublicKey, owen)
			return err
		}},
		{"a grant on an offer with an altered quote", func() error {
			_, err := s.ownerVol.GrantAccess(mangledOffer(func(o *enclave.Offer) { o.Quote.Measurement[0] ^= 1 }), "alice", alice.PublicKey, owen)
			return err
		}},
		{"a grant on an offer for another key", func() error {
			_, err := s.ownerVol.GrantAccess(mangledOffer(func(o *enclave.Offer) { o.EnclaveKey = flipBit(o.EnclaveKey) }), "alice", alice.PublicKey, owen)
			return err
		}},
		{"accepting a grant with a garbage ephemeral key", func() error {
			_, _, err := s.peer.AcceptShareGrant(mangledGrant(func(g *enclave.Grant) { g.EphemeralKey = []byte("key") }), owen.PublicKey)
			return err
		}},
		{"accepting a grant with a 13-byte nonce", func() error {
			_, _, err := s.peer.AcceptShareGrant(mangledGrant(func(g *enclave.Grant) { g.Nonce = make([]byte, 13) }), owen.PublicKey)
			return err
		}},
		{"accepting a grant on the wrong client", func() error { _, _, err := s.owner.AcceptShareGrant(grant, owen.PublicKey); return err }},
		{"accepting a grant with a flipped bit", func() error { _, _, err := s.peer.AcceptShareGrant(flipBit(grant), owen.PublicKey); return err }},
		{"accepting a grant from mallory", func() error { _, _, err := s.peer.AcceptShareGrant(grant, mallory.PublicKey); return err }},
		{"accepting a mutual grant never begun", func() error { _, _, err := s.peer.AcceptMutualShareGrant(grant, owen.PublicKey); return err }},
		{"the owner mounting with alice's sealed rootkey", func() error { _, err := s.owner.Mount(owen, s.sealed["alice"], s.volID); return err }},
		{"a mount with a short public key", func() error {
			_, err := s.owner.Mount(nexus.Identity{Name: "owen", PublicKey: owen.PublicKey[:31], PrivateKey: owen.PrivateKey}, s.sealed["owen"], s.volID)
			return err
		}},
		{"completing an auth never begun", func() error { return s.owner.Enclave().CompleteAuth(make([]byte, 64)) }},
		{"a group ACL for a leaf that does not exist", func() error { return s.ownerVol.SetGroupACL("/shared", 1<<20, nexus.ReadOnly) }},
		{"the subgroup of mallory", func() error { _, err := s.ownerVol.UserGroup("mallory"); return err }},
		{"reading a directory", func() error { _, err := owner.ReadFile("/shared"); return err }},
		{"writing a directory", func() error { return owner.WriteFile("/shared", []byte("x")) }},
		{"making the root", func() error { return owner.Mkdir("/") }},
		{"removing the root", func() error { return owner.Remove("/") }},
		{"walking through a file", func() error { _, err := owner.ReadFile("/full/f/g"); return err }},
		{"reading a missing file", func() error { _, err := owner.ReadFile("/full/none"); return err }},
		{"renaming a file onto a directory", func() error { return owner.Rename("/full/f", "/shared") }},
		{"hardlinking onto an existing name", func() error { return owner.Hardlink("/full/f", "/full/f") }},
		{"hardlinking the root", func() error { return owner.Hardlink("/", "/hard") }},
		{"removing a non-empty directory", func() error { return owner.Remove("/full") }},
		{"renaming the root", func() error { return owner.Rename("/", "/top") }},
		{"a dot-dot path", func() error { _, err := owner.ReadFile("/shared/../d0/f0"); return err }},
		{"an empty symlink", func() error { return owner.Symlink("", "/link") }},
		{"hardlinking a directory", func() error { return owner.Hardlink("/shared", "/hard") }},
		{"alice listing a missing directory", func() error { _, err := peer.ReadDir("/shared/none"); return err }},
	}
	for _, c := range calls {
		if s.do(c.what, c.fn) == nil {
			s.t.Errorf("%s succeeded", c.what)
		}
	}
	s.must(s.mount("the owner's remount", s.owner, owen, s.sealed["owen"]))
}

// sweep runs action once with each attack armed at each store call of
// its kind in turn, until the action makes too few calls for the attack
// to fire. prepare runs unattacked before each try.
func (s *leakStream) sweep(what string, attacks []attack, prepare, action func() error) {
	for _, at := range attacks {
		for n := 0; n < 64; n++ {
			if prepare != nil {
				_ = s.do(what+", unattacked", prepare)
			}
			s.adv.arm(at, n)
			how := fmt.Sprintf("%s %s call %d", at.kind, at.op, n)
			if at.every {
				how = fmt.Sprintf("%s every %s call from the %dth", at.kind, at.op, n)
			}
			_ = s.do(what+", with the store told to "+how, action)
			if !s.adv.disarm() {
				break
			}
		}
	}
}

// sweeps drives the mount, the cold read, the write, the ACL change, the
// revocation and the grant through every attack at every call.
func (s *leakStream) sweeps() {
	owen, alice, dave := s.ids["owen"], s.ids["alice"], s.ids["dave"]
	owner := func() *nexus.FS { return s.ownerVol.FS() }
	dropCaches := func() error { s.owner.Enclave().DropCaches(); return nil }
	big := make([]byte, metadata.MaxInlineSize+1+s.rng.Intn(8<<10))
	s.rng.Read(big)
	s.must(s.do("writing /d0/big", func() error { return owner().WriteFile("/d0/big", big) }))

	s.sweep("the owner's cold remount", readAttacks, dropCaches, func() error {
		return s.mount("the owner's remount", s.owner, owen, s.sealed["owen"])
	})
	s.sweep("a cold read of /d0/big", readAttacks, dropCaches, func() error {
		data, err := owner().ReadFile("/d0/big")
		s.result("a cold read of /d0/big", data)
		return err
	})
	s.sweep("a write of /d1/swept", writeAttacks, nil, func() error {
		if err := owner().WriteFile("/d1/swept", big); err != nil {
			return err
		}
		return owner().Sync()
	})
	s.sweep("an ACL on /shared", writeAttacks, nil, func() error {
		return s.ownerVol.SetACL("/shared", "alice", nexus.ReadWrite)
	})
	s.sweep("removing dave", writeAttacks, func() error {
		return s.ownerVol.AddUser("dave", dave.PublicKey)
	}, func() error {
		return s.ownerVol.RemoveUser("dave")
	})
	var offer []byte
	s.sweep("a grant to alice", allAttacks, func() (err error) {
		offer, err = s.peer.CreateShareOffer(alice)
		s.result("the offer of alice", offer)
		return err
	}, func() error {
		grant, err := s.ownerVol.GrantAccess(offer, "alice", alice.PublicKey, owen)
		s.result("the grant to alice", grant)
		return err
	})
}

// TestPropertyKeyLeak checks Properties K1–K4 of DESIGN.md §6 over one
// seeded stream.
func TestPropertyKeyLeak(t *testing.T) {
	seed := envSeed(t, "NEXUS_CHAOS_SEED")
	s := newLeakStream(t, seed)
	s.setUp()
	s.randomOps(160)
	s.exchangesAndRevocation()
	s.hostileCalls()
	s.randomOps(80)
	s.sweeps()
	for name, c := range map[string]*nexus.Client{"owner": s.owner, "peer": s.peer} {
		var expo bytes.Buffer
		obs.WritePrometheus(&expo, c.Obs())
		s.rec.emit("the "+name+" client's metrics", expo.Bytes())
	}

	// The property holds vacuously unless every class of key was found.
	perProperty := make(map[string]int)
	for _, k := range s.rec.keys {
		perProperty[k.property]++
	}
	for _, p := range []string{"K1", "K2", "K3", "K4"} {
		if perProperty[p] == 0 {
			t.Errorf("seed %d: no key of Property %s was tracked", seed, p)
		}
	}
	if s.adv.fired == 0 {
		t.Errorf("seed %d: the adversary never struck", seed)
	}
	leaks := s.rec.leaks()
	for i, leak := range leaks {
		if i == 10 {
			t.Errorf("... and %d more", len(leaks)-i)
			break
		}
		t.Errorf("seed %d: %s", seed, leak)
	}
	var n int
	for _, e := range s.rec.out {
		n += len(e.b)
	}
	t.Logf("seed %d: %d keys %v searched for in %d records (%d B) after %d attacks",
		seed, len(s.rec.keys), perProperty, len(s.rec.out), n, s.adv.fired)
}
