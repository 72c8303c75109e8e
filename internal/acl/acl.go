// Package acl implements the discretionary access control model that the
// NEXUS enclave enforces at each directory (DSN'19 §IV-C).
//
// Users are bound to small integer IDs by the volume supernode; each
// dirnode carries an access control list of (user ID, rights) entries
// that applies to all files and subdirectories within the directory.
// Evaluation is default-deny, with the volume owner implicitly granted
// everything. Rights follow the AFS vocabulary the prototype's OpenAFS
// deployment exposes, which is also what "fine-grained policies" means in
// the paper's evaluation.
package acl

import (
	"fmt"
	"strings"

	"nexus/internal/serial"
)

// Rights is a bitmask of directory-scoped permissions.
type Rights uint16

// Individual rights. The vocabulary mirrors AFS directory rights: lookup
// (list and traverse), read (file contents), insert (create entries),
// delete (remove entries), write (modify file contents), and administer
// (change the ACL itself).
const (
	Lookup Rights = 1 << iota
	Read
	Insert
	Delete
	Write
	Administer
)

// Common combinations.
const (
	// None grants nothing; default-deny.
	None Rights = 0
	// ReadOnly is lookup plus read.
	ReadOnly = Lookup | Read
	// ReadWrite grants everything except ACL administration.
	ReadWrite = Lookup | Read | Insert | Delete | Write
	// All grants every right.
	All = ReadWrite | Administer
)

// Has reports whether r includes every right in want.
func (r Rights) Has(want Rights) bool { return r&want == want }

// String renders the rights in AFS letter notation (lrid wa).
func (r Rights) String() string {
	if r == None {
		return "none"
	}
	var b strings.Builder
	for _, f := range []struct {
		bit Rights
		ch  byte
	}{
		{Lookup, 'l'}, {Read, 'r'}, {Insert, 'i'},
		{Delete, 'd'}, {Write, 'w'}, {Administer, 'a'},
	} {
		if r.Has(f.bit) {
			b.WriteByte(f.ch)
		}
	}
	return b.String()
}

// ParseRights parses AFS letter notation ("rlidwa"), plus the shorthands
// "read" (lr), "write" (lridw), "all" and "none".
func ParseRights(s string) (Rights, error) {
	switch strings.ToLower(s) {
	case "none", "":
		return None, nil
	case "read":
		return ReadOnly, nil
	case "write":
		return ReadWrite, nil
	case "all":
		return All, nil
	}
	var r Rights
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'l':
			r |= Lookup
		case 'r':
			r |= Read
		case 'i':
			r |= Insert
		case 'd':
			r |= Delete
		case 'w':
			r |= Write
		case 'a':
			r |= Administer
		default:
			return None, fmt.Errorf("acl: unknown right %q in %q", s[i], s)
		}
	}
	return r, nil
}

// GroupIDFlag marks an entry's UserID as naming a subgroup of the
// volume's member tree (internal/groupkey) rather than a single
// user: the low 31 bits carry the tree's stable leaf index. Real user
// IDs stay below the flag (the supernode enforces this at AddUser), so
// group entries ride the existing wire format unchanged and pre-group
// volumes decode identically.
const GroupIDFlag uint32 = 1 << 31

// GroupEntryID returns the entry ID naming a member-tree leaf subgroup.
func GroupEntryID(leaf uint32) uint32 { return leaf | GroupIDFlag }

// IsGroupEntry reports whether an entry ID names a subgroup.
func IsGroupEntry(id uint32) bool { return id&GroupIDFlag != 0 }

// GroupLeaf extracts the leaf subgroup index from a group entry ID.
func GroupLeaf(id uint32) uint32 { return id &^ GroupIDFlag }

// Entry grants rights to one user, or — when UserID carries
// GroupIDFlag — to every member of one member-tree leaf subgroup.
type Entry struct {
	UserID uint32
	Rights Rights
}

// List is a directory's access control list. The zero value is an empty
// list (deny everyone but the owner).
type List struct {
	entries []Entry
}

// Clone returns a deep copy.
func (l *List) Clone() List {
	out := List{}
	if len(l.entries) > 0 {
		out.entries = make([]Entry, len(l.entries))
		copy(out.entries, l.entries)
	}
	return out
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.entries) }

// Entries returns a copy of the entries.
func (l *List) Entries() []Entry {
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Set grants rights to a user, replacing any previous entry. Setting
// None removes the entry entirely (a revocation).
func (l *List) Set(userID uint32, r Rights) {
	if r == None {
		l.Remove(userID)
		return
	}
	for i := range l.entries {
		if l.entries[i].UserID == userID {
			l.entries[i].Rights = r
			return
		}
	}
	l.entries = append(l.entries, Entry{UserID: userID, Rights: r})
}

// Remove deletes the user's entry. It reports whether an entry existed.
func (l *List) Remove(userID uint32) bool {
	for i := range l.entries {
		if l.entries[i].UserID == userID {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Get returns the user's rights (None when absent).
func (l *List) Get(userID uint32) Rights {
	for _, e := range l.entries {
		if e.UserID == userID {
			return e.Rights
		}
	}
	return None
}

// Decision is the outcome of an access check, carried in errors and logs.
type Decision struct {
	UserID  uint32
	Want    Rights
	Have    Rights
	IsOwner bool
}

// Check evaluates whether the user may perform an action requiring want.
// The owner is always permitted (DSN'19: "automatically grants
// administrative rights to the volume owner"); everyone else needs an
// entry covering every requested right. Deny is the default.
func (l *List) Check(userID uint32, isOwner bool, want Rights) (Decision, bool) {
	d := Decision{UserID: userID, Want: want, IsOwner: isOwner}
	if isOwner {
		d.Have = All
		return d, true
	}
	d.Have = l.Get(userID)
	return d, d.Have.Has(want)
}

// ResolveRights unions the user's direct entry with every group entry
// naming a subgroup in groups (the caller obtains groups from the key
// tree's GroupsOf). Default-deny: no entries, no rights.
func (l *List) ResolveRights(userID uint32, groups []uint32) Rights {
	r := l.Get(userID)
	for _, g := range groups {
		r |= l.Get(GroupEntryID(g))
	}
	return r
}

// CheckGroups is Check with group resolution: the user may act when its
// direct entry and its subgroups' entries together cover want. The
// owner bypass is unchanged.
func (l *List) CheckGroups(userID uint32, isOwner bool, groups []uint32, want Rights) bool {
	if isOwner {
		return true
	}
	return l.ResolveRights(userID, groups).Has(want)
}

// Encode appends the list to w.
func (l *List) Encode(w *serial.Writer) {
	w.WriteUint32(uint32(len(l.entries)))
	for _, e := range l.entries {
		w.WriteUint32(e.UserID)
		w.WriteUint16(uint16(e.Rights))
	}
}

// DecodeList reads a list previously written by Encode.
func DecodeList(r *serial.Reader) List {
	n := r.ReadCount(0, "acl entries")
	l := List{}
	if n > 0 {
		l.entries = make([]Entry, 0, n)
	}
	for i := 0; i < n; i++ {
		l.entries = append(l.entries, Entry{
			UserID: r.ReadUint32("acl user id"),
			Rights: Rights(r.ReadUint16("acl rights")),
		})
	}
	return l
}
