package metadata

import (
	"cmp"
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"
	"strings"

	"nexus/internal/acl"
	"nexus/internal/groupkey"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// OwnerUserID is the fixed user ID of the volume owner. Other users are
// assigned IDs from 2 upwards.
const OwnerUserID uint32 = 1

// MaxUsers bounds the supernode's member list, the owner included.
const MaxUsers = 64 << 10

// maxUserNameLen bounds a username. NewSupernode, AddUser and the decoder
// share it, so every name the supernode accepts survives a flush and a
// reload.
const maxUserNameLen = 256

// supernodeLayout tags the body layout after the two UUIDs. The retired
// layouts stored the owner's record there, whose first byte is that of
// OwnerUserID in little-endian order: a body starting its third field
// with supernodeLayoutRetired is one of them.
const (
	supernodeLayout        uint8 = 2
	supernodeLayoutRetired uint8 = 1
)

// User binds a username and public key to the small integer ID that
// dirnode ACLs reference (DSN'19 §IV-C).
type User struct {
	ID        uint32
	Name      string
	PublicKey ed25519.PublicKey
}

// record is one member's entry in the user table: the ID the member tree
// holds it under, and its name and raw public key.
type record struct {
	id        uint32
	name, key string
}

func (r record) user() User {
	return User{ID: r.id, Name: r.name, PublicKey: ed25519.PublicKey(r.key)}
}

func recordName(r record) string { return r.name }
func recordKey(r record) string  { return r.key }

// Supernode defines the context of a single NEXUS volume: the volume and
// root-directory UUIDs and the table of authorized users (§IV-A1), whose
// members are exactly those of the member tree. The owner is the
// immutable member OwnerUserID.
type Supernode struct {
	// VolumeUUID names the volume (and this supernode object).
	VolumeUUID uuid.UUID
	// RootDir is the UUID of the root dirnode.
	RootDir uuid.UUID
	// NextUserID is the next ID to assign.
	NextUserID uint32
	// GroupTree is the volume's member IDs in leaf subgroups, never nil.
	// It is the one member list: AddUser enrolls in it and RemoveUser
	// revokes from it.
	GroupTree *groupkey.Tree

	// records holds one entry per tree member in ascending ID order, the
	// owner first. byName and byKey are positions in records sorted by
	// name and by key.
	records       []record
	byName, byKey []int32
}

// Supernode errors.
var (
	// ErrUserExists reports an attempt to add a duplicate username or key.
	ErrUserExists = errors.New("metadata: user already present in supernode")
	// ErrUserNotFound reports a lookup of an unknown user.
	ErrUserNotFound = errors.New("metadata: user not found in supernode")
	// ErrUserTableFull reports that the supernode user table is at
	// MaxUsers capacity.
	ErrUserTableFull = errors.New("metadata: supernode user table full")
)

// NewSupernode creates the supernode for a fresh volume owned by the
// given identity, its first member.
func NewSupernode(ownerName string, ownerKey ed25519.PublicKey) (*Supernode, error) {
	s := &Supernode{
		VolumeUUID: uuid.New(),
		RootDir:    uuid.New(),
		NextUserID: OwnerUserID,
		GroupTree:  groupkey.NewTree(groupkey.Config{}),
	}
	if _, err := s.AddUser(ownerName, ownerKey); err != nil {
		return nil, err
	}
	return s, nil
}

// checkUser validates one identity: a non-empty name of at most
// maxUserNameLen bytes and an Ed25519-sized key.
func checkUser(name string, key ed25519.PublicKey) error {
	if name == "" {
		return fmt.Errorf("metadata: username must not be empty")
	}
	if len(name) > maxUserNameLen {
		return fmt.Errorf("metadata: username is %d bytes, limit %d", len(name), maxUserNameLen)
	}
	if len(key) != ed25519.PublicKeySize {
		return fmt.Errorf("metadata: key of %q must be %d bytes", name, ed25519.PublicKeySize)
	}
	return nil
}

// AddUser grants a new identity access to the volume, enrolling it in
// the member tree, and returns its assigned user ID. Usernames and keys
// must be unique, the table is capped at MaxUsers, and assigned IDs stay
// below acl.GroupIDFlag so dirnode ACL entries can carry group grants in
// the high bit.
func (s *Supernode) AddUser(name string, key ed25519.PublicKey) (uint32, error) {
	if err := checkUser(name, key); err != nil {
		return 0, err
	}
	if len(s.records) >= MaxUsers {
		return 0, fmt.Errorf("%w: %d users", ErrUserTableFull, MaxUsers)
	}
	k := string(key)
	nameAt, nameTaken := s.search(s.byName, recordName, name)
	keyAt, keyTaken := s.search(s.byKey, recordKey, k)
	if nameTaken || keyTaken {
		return 0, fmt.Errorf("%w: %s", ErrUserExists, name)
	}
	if s.NextUserID >= acl.GroupIDFlag {
		return 0, fmt.Errorf("metadata: user ID space exhausted")
	}
	id := s.NextUserID
	if _, err := s.GroupTree.Add(id); err != nil {
		return 0, fmt.Errorf("metadata: enrolling user %d in the member tree: %w", id, err)
	}
	s.NextUserID++
	at := int32(len(s.records)) // the largest ID yet: records stay in ID order
	s.records = append(s.records, record{id: id, name: name, key: k})
	s.byName = slices.Insert(s.byName, nameAt, at)
	s.byKey = slices.Insert(s.byKey, keyAt, at)
	return id, nil
}

// RemoveUser revokes a user by name, removing it from the member tree,
// and returns its former ID. The owner cannot be removed.
func (s *Supernode) RemoveUser(name string) (uint32, error) {
	nameAt, ok := s.search(s.byName, recordName, name)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUserNotFound, name)
	}
	at := int(s.byName[nameAt])
	id := s.records[at].id
	if id == OwnerUserID {
		return 0, fmt.Errorf("metadata: the volume owner cannot be removed")
	}
	if err := s.GroupTree.Revoke(id); err != nil {
		return 0, fmt.Errorf("metadata: revoking user %d from the member tree: %w", id, err)
	}
	s.records = slices.Delete(s.records, at, at+1)
	s.reindex() // the later records moved down one
	return id, nil
}

// search looks v up in index, whose positions are sorted by field: it
// returns where v is, or where it would be inserted, and whether it is
// there. O(log n).
func (s *Supernode) search(index []int32, field func(record) string, v string) (int, bool) {
	return slices.BinarySearchFunc(index, v, func(p int32, v string) int {
		return strings.Compare(field(s.records[p]), v)
	})
}

// find returns the member whose field is v. O(log n).
func (s *Supernode) find(index []int32, field func(record) string, v string) (User, bool) {
	at, ok := s.search(index, field, v)
	if !ok {
		return User{}, false
	}
	return s.records[index[at]].user(), true
}

// Users returns every member: the owner first, then ascending ID.
func (s *Supernode) Users() []User {
	out := make([]User, len(s.records))
	for i, r := range s.records {
		out[i] = r.user()
	}
	return out
}

// FindUserByID returns the member with the given ID. O(log n).
func (s *Supernode) FindUserByID(id uint32) (User, error) {
	i, ok := slices.BinarySearchFunc(s.records, id, func(r record, id uint32) int {
		return cmp.Compare(r.id, id)
	})
	if !ok {
		return User{}, fmt.Errorf("%w: id %d", ErrUserNotFound, id)
	}
	return s.records[i].user(), nil
}

// FindUserByKey returns the member whose public key matches.
func (s *Supernode) FindUserByKey(key ed25519.PublicKey) (User, error) {
	if u, ok := s.find(s.byKey, recordKey, string(key)); ok {
		return u, nil
	}
	return User{}, fmt.Errorf("%w: by public key", ErrUserNotFound)
}

// FindUserByName returns the member with the given name.
func (s *Supernode) FindUserByName(name string) (User, error) {
	if u, ok := s.find(s.byName, recordName, name); ok {
		return u, nil
	}
	return User{}, fmt.Errorf("%w: %s", ErrUserNotFound, name)
}

// EncodeBody serializes the supernode body for Seal:
//
//	VolumeUUID ‖ RootDir ‖ layout ‖ NextUserID ‖ count ‖ (name ‖ key)* ‖ tree
//
// A record is a length-prefixed name and a raw 32-byte key, with no ID:
// record i belongs to the member tree's i-th smallest member ID. The tree's
// encoding is the rest of the body.
func (s *Supernode) EncodeBody() []byte {
	tree := s.GroupTree.Encode()
	w := serial.NewWriter(2*uuid.Size + 1 + 4 + 4 + len(s.records)*(4+16+ed25519.PublicKeySize) + len(tree))
	w.WriteRaw(s.VolumeUUID[:])
	w.WriteRaw(s.RootDir[:])
	w.WriteUint8(supernodeLayout)
	w.WriteUint32(s.NextUserID)
	w.WriteUint32(uint32(len(s.records)))
	for _, r := range s.records {
		w.WriteString(r.name)
		w.WriteRaw([]byte(r.key))
	}
	w.WriteRaw(tree)
	return w.Bytes()
}

// DecodeSupernodeBody parses a body produced by EncodeBody and holds it
// to what NewSupernode and AddUser guarantee: one record per member-tree
// member, member OwnerUserID among them, every ID below NextUserID,
// itself inside the user ID space, and valid names, unique like the
// keys. A body of a retired layout, or whose tree is of a retired
// format, fails with ErrUnsupportedLayout. The records are copied once
// into one string, which every name and key is a substring of.
func DecodeSupernodeBody(body []byte) (*Supernode, error) {
	r := serial.NewReader(body)
	s := &Supernode{}
	r.ReadRawInto(s.VolumeUUID[:], "volume uuid")
	r.ReadRawInto(s.RootDir[:], "root dir uuid")
	switch layout := r.ReadUint8("supernode layout"); {
	case r.Err() != nil:
	case layout == supernodeLayoutRetired:
		return nil, fmt.Errorf("%w: supernode whose user table is a list beside the member tree", ErrUnsupportedLayout)
	case layout != supernodeLayout:
		return nil, fmt.Errorf("%w: supernode layout %d", ErrMalformed, layout)
	}
	s.NextUserID = r.ReadUint32("next user id")
	nameLens := make([]int, r.ReadCount(MaxUsers, "member count"))
	// flat has room for every byte left and one more record, so a record
	// cut short fails the read instead of overrunning it.
	flat := make([]byte, 0, r.Remaining()+maxUserNameLen+ed25519.PublicKeySize)
	for i := 0; i < len(nameLens) && r.Err() == nil; i++ {
		nameLens[i] = r.ReadCount(maxUserNameLen, "member name length")
		at := len(flat)
		flat = flat[:at+nameLens[i]+ed25519.PublicKeySize]
		r.ReadRawInto(flat[at:], "member record")
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decoding supernode: %w", err)
	}
	tree, err := groupkey.DecodeTree(body[r.Offset():])
	if errors.Is(err, groupkey.ErrUnsupportedLayout) {
		return nil, fmt.Errorf("%w: supernode with a retired member tree: %w", ErrUnsupportedLayout, err)
	}
	if err != nil {
		return nil, fmt.Errorf("decoding supernode group tree: %w", err)
	}
	s.GroupTree = tree
	ids := tree.IDs()
	switch n := len(ids); {
	case n != len(nameLens):
		return nil, fmt.Errorf("%w: %d member records for %d member-tree members", ErrMalformed, len(nameLens), n)
	case n == 0 || ids[0] != OwnerUserID:
		return nil, fmt.Errorf("%w: supernode without the owner, member %d", ErrMalformed, OwnerUserID)
	case s.NextUserID <= ids[n-1] || s.NextUserID > acl.GroupIDFlag:
		return nil, fmt.Errorf("%w: next user id %d out of range", ErrMalformed, s.NextUserID)
	}
	str := string(flat)
	s.records = make([]record, len(ids))
	for i, id := range ids {
		if nameLens[i] == 0 {
			return nil, fmt.Errorf("%w: member %d has an empty name", ErrMalformed, id)
		}
		name := str[:nameLens[i]]
		str = str[nameLens[i]:]
		s.records[i] = record{id: id, name: name, key: str[:ed25519.PublicKeySize]}
		str = str[ed25519.PublicKeySize:]
	}
	if !s.reindex() {
		return nil, fmt.Errorf("%w: a member name or key repeats", ErrUserExists)
	}
	return s, nil
}

// reindex sorts byName and byKey afresh from records, and reports whether
// every name and every key is unique.
func (s *Supernode) reindex() bool {
	sorted := func(field func(record) string) ([]int32, bool) {
		index := make([]int32, len(s.records))
		for i := range index {
			index[i] = int32(i)
		}
		slices.SortFunc(index, func(a, b int32) int {
			return strings.Compare(field(s.records[a]), field(s.records[b]))
		})
		for i := 1; i < len(index); i++ {
			if field(s.records[index[i-1]]) == field(s.records[index[i]]) {
				return index, false
			}
		}
		return index, true
	}
	var names, keys bool
	s.byName, names = sorted(recordName)
	s.byKey, keys = sorted(recordKey)
	return names && keys
}
