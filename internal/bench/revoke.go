package bench

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"nexus"
	"nexus/internal/backend"
	"nexus/internal/cryptofs"
	"nexus/internal/groupkey"
	"nexus/internal/metadata"
	"nexus/internal/workload"
)

// metadataBytesWritten names the registry counter of sealed metadata
// bytes the enclave uploaded; a window is the difference of two reads.
const metadataBytesWritten = "enclave_metadata_bytes_written_total"

// RevocationRow compares the cost of revoking one user's access to a
// directory under NEXUS (re-encrypt one metadata object) against a pure
// cryptographic filesystem (re-encrypt and re-upload every affected
// file), reproducing §VII-E.
type RevocationRow struct {
	Workload  string
	DataBytes int64

	// NEXUS: bytes of metadata re-encrypted + uploaded, and elapsed time.
	NexusBytes int64
	NexusTime  time.Duration

	// Pure-crypto baseline: bytes re-encrypted and uploaded, and time.
	CryptoBytes    int64
	CryptoUploaded int64
	CryptoTime     time.Duration
}

// Revocation reproduces the §VII-E revocation estimates over the given
// flat workloads (paper: SFLD with 10 MB of data vs LFSD with 3.2 GB).
func Revocation(env *Env, specs []workload.FlatSpec) ([]RevocationRow, error) {
	rows := make([]RevocationRow, 0, len(specs))

	alice, err := nexus.NewIdentity("revokee")
	if err != nil {
		return nil, err
	}
	if err := env.NexusVolume.AddUser("revokee", alice.PublicKey); err != nil {
		return nil, err
	}

	for _, spec := range specs {
		row := RevocationRow{Workload: spec.Name}
		size := spec.FileSize / env.Config.Scale
		if size < 1 {
			size = 1
		}
		row.DataBytes = int64(spec.NumFiles) * size

		// --- NEXUS side: populate a directory, grant, then revoke. ---
		root := "/revoke-" + spec.Name
		if err := workload.MaterializeFlat(env.NexusFS, root, spec, env.Config.Scale); err != nil {
			return nil, fmt.Errorf("materializing %s: %w", spec.Name, err)
		}
		if err := env.NexusVolume.SetACL(root, "revokee", nexus.ReadWrite); err != nil {
			return nil, err
		}
		written := env.Obs.CounterValue(metadataBytesWritten)
		start := time.Now()
		if err := env.NexusVolume.SetACL(root, "revokee", nexus.NoRights); err != nil {
			return nil, fmt.Errorf("nexus revocation: %w", err)
		}
		row.NexusTime = time.Since(start)
		row.NexusBytes = env.Obs.CounterValue(metadataBytesWritten) - written

		// --- Pure-crypto baseline over the same population. ---
		owner, err := cryptofs.NewUser("owner")
		if err != nil {
			return nil, err
		}
		revokee, err := cryptofs.NewUser("revokee")
		if err != nil {
			return nil, err
		}
		cfs := cryptofs.New(backend.NewMemStore(), owner)
		cfs.AddUser(revokee)
		content := workload.NewContent(1)
		data := content.Fill(size)
		paths := make([]string, 0, spec.NumFiles)
		for i := 0; i < spec.NumFiles; i++ {
			p := fmt.Sprintf("/f%05d", i)
			paths = append(paths, p)
			if err := cfs.WriteFile(p, data, []string{"revokee"}); err != nil {
				return nil, err
			}
		}
		start = time.Now()
		stats, err := cfs.Revoke("revokee", paths)
		if err != nil {
			return nil, fmt.Errorf("cryptofs revocation: %w", err)
		}
		row.CryptoTime = time.Since(start)
		row.CryptoBytes = stats.BytesReencrypted
		row.CryptoUploaded = stats.BytesUploaded
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintRevocation renders the §VII-E comparison.
func PrintRevocation(w io.Writer, rows []RevocationRow) {
	fmt.Fprintln(w, "§VII-E — Revocation estimates (revoke one user from a directory)")
	fmt.Fprintf(w, "%-24s %12s | %14s %10s | %16s %12s\n",
		"workload", "data", "nexus bytes", "time", "crypto-fs bytes", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12s | %14s %10s | %16s %12s\n",
			r.Workload, fmtBytes(r.DataBytes),
			fmtBytes(r.NexusBytes), fmtDur(r.NexusTime),
			fmtBytes(r.CryptoBytes), fmtDur(r.CryptoTime))
	}
	fmt.Fprintln(w)
}

// MembershipRow is one cell of the revocation membership sweep: the
// cost of revoking one member at a given group size under the subgroup
// key tree, and what the membership costs the supernode every revoke,
// add and mount moves whole. The alternative — one flat group key
// re-wrapped for every survivor — costs Members−1 wraps by construction
// and is not measured.
type MembershipRow struct {
	Members    int
	WrapsPerOp float64
	BytesPerOp float64
	NsPerOp    float64
	// TreeBytesPerMember is the encoded key tree's size over Members.
	TreeBytesPerMember float64
	// SupernodeBytes is the sealed supernode of an owner and Members−1
	// users, its key tree built by AddUser; 0 above the user table's cap.
	SupernodeBytes int64
}

// MembershipSweep measures per-revocation wrap work across membership
// sizes (the 10^3–10^6 sweep), driving the key tree directly: the
// enclave's 64K user-table cap bounds end-to-end scale, and the wrap
// counts are a property of the tree alone. runs distinct members are
// revoked per cell and the costs averaged. Each cell also seals the
// supernode of its membership, up to the user table's cap.
func MembershipSweep(counts []int, runs int) ([]MembershipRow, error) {
	var rows []MembershipRow
	for _, n := range counts {
		if n < 4 {
			return nil, fmt.Errorf("bench: sweep size %d too small", n)
		}
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = metadata.OwnerUserID + uint32(i)
		}
		tree, err := groupkey.NewTreeWithMembers(groupkey.Config{}, ids)
		if err != nil {
			return nil, err
		}
		treeBytes := len(tree.Encode())
		sealed, err := sealedSupernode(n)
		if err != nil {
			return nil, err
		}
		row, err := sweepRevocations(tree, ids, runs)
		if err != nil {
			return nil, err
		}
		row.TreeBytesPerMember = float64(treeBytes) / float64(n)
		row.SupernodeBytes = int64(len(sealed))
		rows = append(rows, row)
	}
	return rows, nil
}

// sealedSupernode seals a supernode of an owner and members−1 users,
// each enrolled in its key tree by AddUser, or returns nil when the user
// table cannot hold them.
func sealedSupernode(members int) ([]byte, error) {
	if members > metadata.MaxUsers {
		return nil, nil
	}
	key := func(i int) ed25519.PublicKey {
		k := make(ed25519.PublicKey, ed25519.PublicKeySize)
		binary.BigEndian.PutUint32(k, uint32(i))
		return k
	}
	super, err := metadata.NewSupernode("owner", key(0))
	if err != nil {
		return nil, err
	}
	for i := 1; i < members; i++ {
		if _, err := super.AddUser(fmt.Sprintf("user%d", i), key(i)); err != nil {
			return nil, err
		}
	}
	rootKey, err := metadata.NewRootKey()
	if err != nil {
		return nil, err
	}
	p := metadata.Preamble{Type: metadata.TypeSupernode, UUID: super.VolumeUUID, Version: 1}
	return metadata.Seal(rootKey, p, super.EncodeBody())
}

// sweepRevocations revokes `runs` distinct members spread across the
// group and averages the metered wrap work.
func sweepRevocations(tree *groupkey.Tree, ids []uint32, runs int) (MembershipRow, error) {
	n := len(ids)
	if runs < 1 {
		runs = 1
	}
	if runs > n/2 {
		runs = n / 2
	}
	before := tree.Stats()
	start := time.Now()
	for i := 0; i < runs; i++ {
		victim := ids[(i*(n/runs)+n/2)%n]
		if err := tree.Revoke(victim); err != nil {
			return MembershipRow{}, fmt.Errorf("bench: revoke at n=%d: %w", n, err)
		}
	}
	elapsed := time.Since(start)
	st := tree.Stats()
	return MembershipRow{
		Members:    n,
		WrapsPerOp: float64(st.Wraps-before.Wraps) / float64(runs),
		BytesPerOp: float64(st.WrapBytes-before.WrapBytes) / float64(runs),
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(runs),
	}, nil
}

// PrintMembership renders the membership sweep.
func PrintMembership(w io.Writer, rows []MembershipRow) {
	fmt.Fprintln(w, "§VII-E — Revocation vs membership size (per-revocation key-wrap work, subgroup key tree;")
	fmt.Fprintln(w, "a flat group key re-wrapped for every survivor costs members−1 wraps/op by construction;")
	fmt.Fprintln(w, "the sealed supernode, which every revoke, add and mount moves whole, up to the 64K user cap)")
	fmt.Fprintf(w, "%10s %14s %14s %12s %14s %12s\n", "members", "wraps/op", "bytes/op", "time/op", "tree B/member", "supernode")
	for _, r := range rows {
		super := "-"
		if r.SupernodeBytes > 0 {
			super = fmtBytes(r.SupernodeBytes)
		}
		fmt.Fprintf(w, "%10d %14.1f %14s %12s %14.1f %12s\n",
			r.Members, r.WrapsPerOp, fmtBytes(int64(r.BytesPerOp)), fmtDur(time.Duration(r.NsPerOp)),
			r.TreeBytesPerMember, super)
	}
	fmt.Fprintln(w)
}

// MembershipMetrics converts sweep rows into the revoke_membership
// experiment for the JSON report.
func MembershipMetrics(rows []MembershipRow) Experiment {
	exp := make(Experiment)
	for _, r := range rows {
		exp[fmt.Sprintf("tree_%d_users", r.Members)] = Metric{
			NsPerOp:            r.NsPerOp,
			WrapsPerOp:         r.WrapsPerOp,
			BytesPerOp:         r.BytesPerOp,
			TreeBytesPerMember: r.TreeBytesPerMember,
			SupernodeBytes:     float64(r.SupernodeBytes),
		}
	}
	return exp
}

// SharingRow documents the §VII-F sharing costs.
type SharingRow struct {
	Operation string
	Time      time.Duration
	// RPCs counts the AFS exchanges the owner's client made during the
	// operation, a delta of the registry's counter.
	RPCs int64
	Note string
}

// Sharing measures the sharing costs discussed in §VII-F: the rootkey
// exchange (one file write per message), adding/removing a user (one
// supernode update), and ACL evaluation scaling with entry count. The
// recipient runs on its own platform over its own store, so its steps
// make no exchange with the owner's server.
func Sharing(env *Env) ([]SharingRow, error) {
	var rows []SharingRow
	// timed runs fn as one row, and notes what it wrote when note takes
	// the metadata bytes.
	timed := func(op string, note func(written int64) string, fn func() error) error {
		rpcs, written := env.Obs.CounterValue("afs_rpcs_total"), env.Obs.CounterValue(metadataBytesWritten)
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		rows = append(rows, SharingRow{Operation: op, Time: time.Since(start),
			RPCs: env.Obs.CounterValue("afs_rpcs_total") - rpcs,
			Note: note(env.Obs.CounterValue(metadataBytesWritten) - written)})
		return nil
	}
	says := func(text string) func(int64) string { return func(int64) string { return text } }
	metadataBytes := func(written int64) string { return fmt.Sprintf("%d metadata bytes", written) }

	// Remote party on its own platform.
	remoteStore := nexus.NewMemoryStore()
	remote, err := nexus.NewClient(nexus.ClientConfig{Store: remoteStore, IAS: env.IAS})
	if err != nil {
		return nil, err
	}
	bob, err := nexus.NewIdentity("bob")
	if err != nil {
		return nil, err
	}
	owner := env.owner

	var offer, grant []byte
	if err := timed("create offer (m1)", says("recipient side; publishing m1 is 1 file write"), func() (err error) {
		offer, err = remote.CreateShareOffer(bob)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("grant access (m2)", says("verify quote + 1 supernode update; publishing m2 is 1 file write"), func() (err error) {
		grant, err = env.NexusVolume.GrantAccess(offer, "bob", bob.PublicKey, owner)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("accept grant", says("recipient side; ECDH + seal, no uploads"), func() error {
		_, _, err := remote.AcceptShareGrant(grant, owner.PublicKey)
		return err
	}); err != nil {
		return nil, err
	}

	// Add/remove user: one supernode update each.
	carol, err := nexus.NewIdentity("carol")
	if err != nil {
		return nil, err
	}
	if err := timed("add user", metadataBytes, func() error {
		return env.NexusVolume.AddUser("carol", carol.PublicKey)
	}); err != nil {
		return nil, err
	}
	if err := timed("remove user (revocation)", metadataBytes, func() error {
		return env.NexusVolume.RemoveUser("carol")
	}); err != nil {
		return nil, err
	}

	// ACL evaluation scaling: lookup latency with 1 vs 64 ACL entries.
	for _, n := range []int{1, 16, 64} {
		dir := fmt.Sprintf("/aclscale%d", n)
		if err := env.NexusFS.MkdirAll(dir); err != nil {
			return nil, err
		}
		if err := env.NexusFS.WriteFile(dir+"/f", []byte("x")); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("acluser%d-%d", n, i)
			u, err := nexus.NewIdentity(name)
			if err != nil {
				return nil, err
			}
			if err := env.NexusVolume.AddUser(name, u.PublicKey); err != nil {
				return nil, err
			}
			if err := env.NexusVolume.SetACL(dir, name, nexus.ReadOnly); err != nil {
				return nil, err
			}
		}
		const reads = 20
		if err := timed(fmt.Sprintf("read with %d ACL entries", n), says("policy check dominated by metadata fetch"), func() error {
			for i := 0; i < reads; i++ {
				if _, err := env.NexusFS.ReadFile(dir + "/f"); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		rows[len(rows)-1].Time /= reads
	}
	return rows, nil
}

// PrintSharing renders the §VII-F costs.
func PrintSharing(w io.Writer, rows []SharingRow) {
	fmt.Fprintln(w, "§VII-F — Sharing costs")
	fmt.Fprintf(w, "  %-28s %12s %14s   %s\n", "operation", "time", "AFS exchanges", "notes")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %12s %14d   %s\n", r.Operation, fmtDur(r.Time), r.RPCs, r.Note)
	}
	fmt.Fprintln(w)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
