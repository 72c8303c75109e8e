package metadata

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"

	"nexus/internal/acl"
	"nexus/internal/groupkey"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// OwnerUserID is the fixed user ID of the volume owner. Other users are
// assigned IDs from 2 upwards.
const OwnerUserID uint32 = 1

// maxUsers bounds the supernode user table.
const maxUsers = 64 << 10

// maxUserNameLen bounds a username. NewSupernode, AddUser and the decoder
// share it, so every name the supernode accepts survives a flush and a
// reload.
const maxUserNameLen = 256

// supernodeExtGroupTree tags the serialized membership key tree that
// follows NextUserID. A body that ends after NextUserID is the retired
// layout from before the tree.
const supernodeExtGroupTree uint8 = 1

// User binds a username and public key to the small integer ID that
// dirnode ACLs reference (DSN'19 §IV-C).
type User struct {
	ID        uint32
	Name      string
	PublicKey ed25519.PublicKey
}

// Supernode defines the context of a single NEXUS volume: the volume and
// root-directory UUIDs, the immutable owner identity, and the table of
// authorized users (§IV-A1).
type Supernode struct {
	// VolumeUUID names the volume (and this supernode object).
	VolumeUUID uuid.UUID
	// RootDir is the UUID of the root dirnode.
	RootDir uuid.UUID
	// Owner is the volume owner. The owner is immutable and holds
	// OwnerUserID.
	Owner User
	// Users are the other authorized identities, in insertion order.
	Users []User
	// NextUserID is the next ID to assign.
	NextUserID uint32
	// GroupTree is the subgroup key tree over the volume membership,
	// never nil: NewSupernode enrolls the owner in it.
	GroupTree *groupkey.Tree

	// byName, byPubKey and byID index Users by name, string(PublicKey)
	// and ID to slice positions. They are built lazily (nil until the
	// first lookup after a mutation or decode) so direct struct literals
	// in existing callers and tests keep working.
	byName   map[string]int
	byPubKey map[string]int
	byID     map[uint32]int
}

// Supernode errors.
var (
	// ErrUserExists reports an attempt to add a duplicate username or key.
	ErrUserExists = errors.New("metadata: user already present in supernode")
	// ErrUserNotFound reports a lookup of an unknown user.
	ErrUserNotFound = errors.New("metadata: user not found in supernode")
	// ErrUserTableFull reports that the supernode user table is at
	// maxUsers capacity.
	ErrUserTableFull = errors.New("metadata: supernode user table full")
)

// NewSupernode creates the supernode for a fresh volume owned by the
// given identity, with the owner enrolled in the membership key tree.
func NewSupernode(ownerName string, ownerKey ed25519.PublicKey) (*Supernode, error) {
	if err := checkUser(ownerName, ownerKey); err != nil {
		return nil, err
	}
	tree := groupkey.NewTree(groupkey.Config{})
	if _, err := tree.Add(OwnerUserID); err != nil {
		return nil, fmt.Errorf("metadata: enrolling the owner in the key tree: %w", err)
	}
	return &Supernode{
		VolumeUUID: uuid.New(),
		RootDir:    uuid.New(),
		Owner: User{
			ID:        OwnerUserID,
			Name:      ownerName,
			PublicKey: bytes.Clone(ownerKey),
		},
		NextUserID: OwnerUserID + 1,
		GroupTree:  tree,
	}, nil
}

// ensureIndex builds the lazy lookup maps. Mutations invalidate by
// setting them nil; the next lookup rebuilds in one O(n) pass, after
// which FindUserByName/FindUserByKey are O(1).
func (s *Supernode) ensureIndex() {
	if s.byName != nil {
		return
	}
	s.byName = make(map[string]int, len(s.Users))
	s.byPubKey = make(map[string]int, len(s.Users))
	s.byID = make(map[uint32]int, len(s.Users))
	for i, u := range s.Users {
		s.byName[u.Name] = i
		s.byPubKey[string(u.PublicKey)] = i
		s.byID[u.ID] = i
	}
}

func (s *Supernode) invalidateIndex() {
	s.byName = nil
	s.byPubKey = nil
	s.byID = nil
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

// AddUser grants a new identity access to the volume and returns its
// assigned user ID. Usernames and keys must be unique, the table is
// capped at maxUsers, and assigned IDs stay below acl.GroupIDFlag so
// dirnode ACL entries can carry group grants in the high bit.
func (s *Supernode) AddUser(name string, key ed25519.PublicKey) (uint32, error) {
	if err := checkUser(name, key); err != nil {
		return 0, err
	}
	if s.Owner.Name == name || bytes.Equal(s.Owner.PublicKey, key) {
		return 0, fmt.Errorf("%w: %s (owner)", ErrUserExists, name)
	}
	if len(s.Users) >= maxUsers-1 { // the owner occupies one slot
		return 0, fmt.Errorf("%w: %d users", ErrUserTableFull, maxUsers)
	}
	s.ensureIndex()
	if _, ok := s.byName[name]; ok {
		return 0, fmt.Errorf("%w: %s", ErrUserExists, name)
	}
	if _, ok := s.byPubKey[string(key)]; ok {
		return 0, fmt.Errorf("%w: %s", ErrUserExists, name)
	}
	if s.NextUserID >= acl.GroupIDFlag {
		return 0, fmt.Errorf("metadata: user ID space exhausted")
	}
	id := s.NextUserID
	s.NextUserID++
	s.byName[name] = len(s.Users)
	s.byPubKey[string(key)] = len(s.Users)
	s.byID[id] = len(s.Users)
	s.Users = append(s.Users, User{ID: id, Name: name, PublicKey: bytes.Clone(key)})
	return id, nil
}

// FindUserByID returns the user entry with the given ID, including the
// owner. O(1) via the lazy index.
func (s *Supernode) FindUserByID(id uint32) (User, error) {
	if id == s.Owner.ID {
		return s.Owner, nil
	}
	s.ensureIndex()
	if i, ok := s.byID[id]; ok {
		return s.Users[i], nil
	}
	return User{}, fmt.Errorf("%w: id %d", ErrUserNotFound, id)
}

// RemoveUser revokes a user by name, returning their former ID. The
// owner cannot be removed.
func (s *Supernode) RemoveUser(name string) (uint32, error) {
	if name == s.Owner.Name {
		return 0, fmt.Errorf("metadata: the volume owner cannot be removed")
	}
	s.ensureIndex()
	i, ok := s.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUserNotFound, name)
	}
	id := s.Users[i].ID
	s.Users = append(s.Users[:i], s.Users[i+1:]...)
	s.invalidateIndex() // positions after i shifted
	return id, nil
}

// FindUserByKey returns the user entry whose public key matches,
// including the owner. O(1) via the lazy index.
func (s *Supernode) FindUserByKey(key ed25519.PublicKey) (User, error) {
	if bytes.Equal(s.Owner.PublicKey, key) {
		return s.Owner, nil
	}
	s.ensureIndex()
	if i, ok := s.byPubKey[string(key)]; ok {
		return s.Users[i], nil
	}
	return User{}, fmt.Errorf("%w: by public key", ErrUserNotFound)
}

// FindUserByName returns the user entry with the given name, including
// the owner. O(1) via the lazy index.
func (s *Supernode) FindUserByName(name string) (User, error) {
	if s.Owner.Name == name {
		return s.Owner, nil
	}
	s.ensureIndex()
	if i, ok := s.byName[name]; ok {
		return s.Users[i], nil
	}
	return User{}, fmt.Errorf("%w: %s", ErrUserNotFound, name)
}

// EncodeBody serializes the supernode body for Seal.
func (s *Supernode) EncodeBody() []byte {
	w := serial.NewWriter(128 + 64*len(s.Users))
	w.WriteRaw(s.VolumeUUID[:])
	w.WriteRaw(s.RootDir[:])
	encodeUser(w, s.Owner)
	w.WriteUint32(uint32(len(s.Users)))
	for _, u := range s.Users {
		encodeUser(w, u)
	}
	w.WriteUint32(s.NextUserID)
	w.WriteUint8(supernodeExtGroupTree)
	w.WriteBytes(s.GroupTree.Encode())
	return w.Bytes()
}

// DecodeSupernodeBody parses a body produced by EncodeBody:
//
//	VolumeUUID ‖ RootDir ‖ owner ‖ count ‖ users ‖ NextUserID ‖ tag ‖ tree
//
// A body that ends after NextUserID fails with ErrUnsupportedLayout.
func DecodeSupernodeBody(body []byte) (*Supernode, error) {
	r := serial.NewReader(body)
	var s Supernode
	r.ReadRawInto(s.VolumeUUID[:], "volume uuid")
	r.ReadRawInto(s.RootDir[:], "root dir uuid")
	s.Owner = decodeUser(r)
	n := r.ReadCount(maxUsers-1, "user count") // the owner occupies one slot
	if n > 0 {
		s.Users = make([]User, 0, n)
	}
	for i := 0; i < n; i++ {
		s.Users = append(s.Users, decodeUser(r))
	}
	s.NextUserID = r.ReadUint32("next user id")
	if r.Err() == nil && r.Remaining() == 0 {
		return nil, fmt.Errorf("%w: supernode with no key tree", ErrUnsupportedLayout)
	}
	if tag := r.ReadUint8("supernode key tree tag"); r.Err() == nil && tag != supernodeExtGroupTree {
		return nil, fmt.Errorf("%w: supernode key tree tag %d", ErrMalformed, tag)
	}
	blob := r.ReadBytes(1<<30, "group tree blob")
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decoding supernode: %w", err)
	}
	tree, err := groupkey.DecodeTree(blob)
	if err != nil {
		return nil, fmt.Errorf("decoding supernode group tree: %w", err)
	}
	s.GroupTree = tree
	if err := s.checkUsers(); err != nil {
		return nil, fmt.Errorf("decoding supernode: %w", err)
	}
	return &s, nil
}

// checkUsers holds a decoded user table to what NewSupernode and AddUser
// guarantee: valid names and keys, names, keys and IDs unique across the
// owner and every user, the owner at OwnerUserID, and every other ID
// assigned below NextUserID, itself inside the user ID space. Uniqueness
// among the users is read off the lookup index, which a loaded
// supernode builds for its first lookup anyway.
func (s *Supernode) checkUsers() error {
	if s.Owner.ID != OwnerUserID {
		return fmt.Errorf("owner has user id %d, want %d", s.Owner.ID, OwnerUserID)
	}
	if s.NextUserID <= OwnerUserID || s.NextUserID > acl.GroupIDFlag {
		return fmt.Errorf("next user id %d out of range", s.NextUserID)
	}
	if err := checkUser(s.Owner.Name, s.Owner.PublicKey); err != nil {
		return err
	}
	for _, u := range s.Users {
		if err := checkUser(u.Name, u.PublicKey); err != nil {
			return err
		}
		if u.ID <= OwnerUserID || u.ID >= s.NextUserID {
			return fmt.Errorf("user %q has id %d outside [%d, %d)", u.Name, u.ID, OwnerUserID+1, s.NextUserID)
		}
		if u.Name == s.Owner.Name || bytes.Equal(u.PublicKey, s.Owner.PublicKey) {
			return fmt.Errorf("%w: %q repeats the owner's name or key", ErrUserExists, u.Name)
		}
	}
	s.ensureIndex()
	if n := len(s.Users); len(s.byName) != n || len(s.byPubKey) != n || len(s.byID) != n {
		return fmt.Errorf("%w: a user name, key or id repeats", ErrUserExists)
	}
	return nil
}

func encodeUser(w *serial.Writer, u User) {
	w.WriteUint32(u.ID)
	w.WriteString(u.Name)
	w.WriteBytes(u.PublicKey)
}

func decodeUser(r *serial.Reader) User {
	u := User{ID: r.ReadUint32("user id")}
	u.Name = r.ReadString(maxUserNameLen, "user name")
	u.PublicKey = ed25519.PublicKey(r.ReadBytes(ed25519.PublicKeySize, "user public key"))
	return u
}
