// Package nexus is a stackable cryptographic filesystem that provides
// confidentiality, integrity, and fine-grained access control for files
// kept on untrusted storage platforms, following the design of
// "NEXUS: Practical and Secure Access Control on Untrusted Storage
// Platforms using Client-side SGX" (Djoko, Lange, Lee — DSN 2019).
//
// A NEXUS volume is an ordinary collection of blobs on any storage
// service exposing a file API — this repository ships an in-memory
// store, a local-directory store, and an AFS-like networked file server.
// Every blob is either an encrypted data object or an encrypted,
// integrity-protected metadata object, named by a random UUID; the
// storage service learns nothing about names, contents, directory
// structure, or policies.
//
// All keys live inside a client-side (simulated) SGX enclave: the volume
// rootkey is generated in-enclave, persisted only SGX-sealed, and shared
// with other users' enclaves through a remote-attestation-bound ECDH
// exchange. Access control lists are enforced by the enclave at access
// time, which makes revocation a single metadata update rather than a
// bulk file re-encryption.
//
// # Quick start
//
//	ias, _ := nexus.NewAttestationService()
//	client, _ := nexus.NewClient(nexus.ClientConfig{
//		Store: nexus.NewMemoryStore(),
//		IAS:   ias,
//	})
//	owner, _ := nexus.NewIdentity("owen")
//	vol, sealedKey, _ := client.CreateVolume(owner)
//	fs := vol.FS()
//	_ = fs.MkdirAll("/docs")
//	_ = fs.WriteFile("/docs/hello.txt", []byte("hello"))
//	data, _ := fs.ReadFile("/docs/hello.txt")
//	_ = data
//	_ = sealedKey // persist locally; needed to re-mount later
package nexus

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"time"

	"nexus/internal/acl"
	"nexus/internal/backend"
	"nexus/internal/enclave"
	"nexus/internal/obs"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
	"nexus/internal/vfs"
)

// Re-exported types: the public API is expressed in terms of these
// aliases so callers never import internal packages.
type (
	// FS is the filesystem facade over a mounted volume.
	FS = vfs.FS
	// File is an open-to-close file handle.
	File = vfs.File
	// DirEntry is a directory listing entry.
	DirEntry = vfs.DirEntry
	// Rights is a bitmask of directory access rights.
	Rights = acl.Rights
	// VolumeID identifies a volume.
	VolumeID = uuid.UUID
	// AttestationService simulates the Intel Attestation Service that
	// verifies enclave quotes during rootkey exchanges.
	AttestationService = sgx.AttestationService
	// ObjectStore is the versioned storage interface volumes stack on.
	ObjectStore = enclave.ObjectStore
	// Store is the plain storage interface (wrapped automatically).
	Store = backend.Store
	// Obs is the observability registry: counters, gauges, latency
	// histograms, and the tracer for one client stack. See
	// ClientConfig.Obs and Client.Obs.
	Obs = obs.Registry
	// Span is one node of a trace: an operation with a duration, tags,
	// and child spans from the layers beneath it.
	Span = obs.Span
	// HistSnapshot is a point-in-time latency histogram summary
	// (count, sum, min/max, p50/p95/p99).
	HistSnapshot = obs.HistSnapshot
)

// NewObs creates an observability registry to share across clients (or
// to read from before the client exists). Optional: each Client creates
// its own when ClientConfig.Obs is nil.
func NewObs() *Obs { return obs.NewRegistry() }

// Access rights, re-exported from the ACL model (AFS letter vocabulary).
const (
	Lookup     = acl.Lookup
	Read       = acl.Read
	Insert     = acl.Insert
	Delete     = acl.Delete
	Write      = acl.Write
	Administer = acl.Administer
	ReadOnly   = acl.ReadOnly
	ReadWrite  = acl.ReadWrite
	AllRights  = acl.All
	NoRights   = acl.None
)

// Open flags for FS.Open.
const (
	O_RDONLY = vfs.O_RDONLY
	O_RDWR   = vfs.O_RDWR
	O_CREATE = vfs.O_CREATE
	O_TRUNC  = vfs.O_TRUNC
	O_APPEND = vfs.O_APPEND
)

// ParseRights parses AFS letter notation ("lridwa") or the shorthands
// "read", "write", "all", "none".
func ParseRights(s string) (Rights, error) { return acl.ParseRights(s) }

// NewAttestationService creates a fresh simulated attestation service.
// All clients that will exchange volumes must share one.
func NewAttestationService() (*AttestationService, error) {
	return sgx.NewAttestationService()
}

// NewMemoryStore returns an in-memory object store (testing and
// benchmarks).
func NewMemoryStore() ObjectStore {
	return vfs.NewVersionedStore(backend.NewMemStore())
}

// NewLocalStore returns a store persisting objects as files under dir —
// the "store data locally" deployment of the paper's design goals.
func NewLocalStore(dir string) (ObjectStore, error) {
	s, err := backend.NewDirStore(dir)
	if err != nil {
		return nil, err
	}
	return vfs.NewVersionedStore(s), nil
}

// WrapStore adapts any plain Store to the versioned interface.
func WrapStore(s Store) ObjectStore { return vfs.NewVersionedStore(s) }

// Identity is a user of NEXUS volumes: a username bound to an Ed25519
// keypair. The private key never enters the enclave; it signs
// authentication challenges and exchange messages on the user's behalf.
type Identity struct {
	Name       string
	PublicKey  ed25519.PublicKey
	PrivateKey ed25519.PrivateKey
}

// NewIdentity generates a fresh identity.
func NewIdentity(name string) (Identity, error) {
	if name == "" {
		return Identity{}, fmt.Errorf("nexus: identity name must not be empty")
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return Identity{}, fmt.Errorf("nexus: generating identity key: %w", err)
	}
	return Identity{Name: name, PublicKey: pub, PrivateKey: priv}, nil
}

// signer adapts the identity's private key to the enclave's callback.
func (id Identity) signer() enclave.Signer {
	return func(msg []byte) ([]byte, error) {
		if len(id.PrivateKey) != ed25519.PrivateKeySize {
			return nil, fmt.Errorf("nexus: identity %q has no private key", id.Name)
		}
		return ed25519.Sign(id.PrivateKey, msg), nil
	}
}

// ClientConfig configures one user's NEXUS stack on one machine.
//
// Metadata reaches the store through an in-enclave dirty set drained at
// barriers — File.Sync/Close, FS.Sync, FS.WriteFile, ACL/user/sharing
// changes, and the set's high-water marks (64 deferred mutations or
// 4 MiB of batched metadata). A process that ends on a bare Mkdir or
// Remove calls FS.Sync before it exits.
type ClientConfig struct {
	// Store is the backing storage service (required). Use
	// NewMemoryStore, NewLocalStore, afs.Client via WrapStore-free
	// native support, or any ObjectStore implementation. Every volume
	// is rollback-protected by the Merkle-authenticated namespace
	// (DESIGN.md §15): unless the store already serves freshness proofs,
	// the enclave wraps it in freshtree.New, which keeps the
	// untrusted tree on the store as a checkpoint ("freshness-tree",
	// written rarely) plus the leaves changed since, which ride unsealed
	// behind the sealed root in "freshness-root" — a drain uploads what
	// changed, not the namespace (§15.3).
	Store ObjectStore
	// IAS is the attestation service shared by exchanging parties.
	// Optional: without it volumes work locally but cannot be shared.
	IAS *AttestationService
	// BucketSize caps dirnode bucket entries (default 128).
	BucketSize uint32
	// ChunkSize is the file encryption chunk size (default 1 MiB).
	ChunkSize uint32
	// TransitionCost simulates per-ecall/ocall crossing latency.
	TransitionCost time.Duration
	// PlatformSeed, when set, derives the simulated CPU's fused secrets
	// deterministically so sealed rootkeys survive process restarts
	// (persist it like a machine credential). Empty means an ephemeral
	// platform.
	PlatformSeed []byte
	// Obs, when set, is the observability registry the whole stack
	// (vfs, enclave, SGX transitions) records into — share one registry
	// across clients to aggregate, or leave nil for a private registry
	// reachable via Client.Obs.
	Obs *Obs
}

// enclaveImage is the code identity of this NEXUS enclave build. Both
// sides of a rootkey exchange must run the same measurement.
var enclaveImage = sgx.Image{
	Name:    "nexus-enclave",
	Version: 1,
	Code:    []byte("nexus enclave reference implementation v1"),
}

// Client is one user's NEXUS stack: a simulated SGX platform with a
// loaded NEXUS enclave over a backing store. A Client manages one
// mounted volume at a time (matching the prototype's one-daemon-per-
// volume deployment).
type Client struct {
	platform *sgx.Platform
	encl     *enclave.Enclave
	cfg      ClientConfig
}

// NewClient builds a stack from cfg.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("nexus: ClientConfig.Store is required")
	}
	platformCfg := sgx.PlatformConfig{TransitionCost: cfg.TransitionCost}
	var platform *sgx.Platform
	var err error
	if len(cfg.PlatformSeed) > 0 {
		platform, err = sgx.NewPlatformFromSeed(cfg.PlatformSeed, platformCfg, cfg.IAS)
	} else {
		platform, err = sgx.NewPlatform(platformCfg, cfg.IAS)
	}
	if err != nil {
		return nil, fmt.Errorf("nexus: creating platform: %w", err)
	}
	container, err := platform.CreateEnclave(enclaveImage)
	if err != nil {
		return nil, fmt.Errorf("nexus: loading enclave: %w", err)
	}
	encl, err := enclave.New(enclave.Config{
		SGX:        container,
		Store:      cfg.Store,
		IAS:        cfg.IAS,
		BucketSize: cfg.BucketSize,
		ChunkSize:  cfg.ChunkSize,
		Obs:        cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("nexus: creating enclave: %w", err)
	}
	return &Client{platform: platform, encl: encl, cfg: cfg}, nil
}

// Enclave exposes the underlying enclave (statistics, advanced use).
func (c *Client) Enclave() *enclave.Enclave { return c.encl }

// Obs returns the client's observability registry: every layer of the
// stack (vfs facade, enclave, SGX transition simulation) records its
// counters, latency histograms, and trace spans here. Enable tracing
// with c.Obs().Tracer().Enable() and drain span trees with Take.
func (c *Client) Obs() *Obs { return c.encl.Obs() }

// CreateVolume initializes a new volume owned by owner on the client's
// store, authenticates the owner, and returns the mounted volume plus
// the SGX-sealed rootkey the owner must persist locally to re-mount.
func (c *Client) CreateVolume(owner Identity) (*Volume, []byte, error) {
	sealed, err := c.encl.CreateVolume(owner.Name, owner.PublicKey)
	if err != nil {
		return nil, nil, fmt.Errorf("nexus: creating volume: %w", err)
	}
	volID, err := c.encl.VolumeUUID()
	if err != nil {
		return nil, nil, err
	}
	vol, err := c.Mount(owner, sealed, volID)
	if err != nil {
		return nil, nil, err
	}
	return vol, sealed, nil
}

// Mount authenticates user against the volume and returns its
// filesystem. The challenge–response of §IV-B runs under the covers:
// the enclave issues a nonce, the user's key signs nonce ‖ encrypted
// supernode, and the enclave validates the signature against the
// supernode's user table.
func (c *Client) Mount(user Identity, sealedRootKey []byte, volumeID VolumeID) (*Volume, error) {
	nonce, superBlob, err := c.encl.BeginAuth(user.PublicKey, sealedRootKey, volumeID)
	if err != nil {
		return nil, fmt.Errorf("nexus: mounting: %w", err)
	}
	msg := make([]byte, 0, len(nonce)+len(superBlob))
	msg = append(msg, nonce...)
	msg = append(msg, superBlob...)
	sig, err := user.signer()(msg)
	if err != nil {
		return nil, err
	}
	if err := c.encl.CompleteAuth(sig); err != nil {
		return nil, fmt.Errorf("nexus: mounting: %w", err)
	}
	return &Volume{client: c, fs: vfs.New(c.encl), id: volumeID}, nil
}

// CreateShareOffer produces this client's exchange offer (m1 of Fig. 4):
// an attested binding of the local enclave's ECDH key, signed by user.
// Publish the returned bytes where the volume owner can read them (e.g.
// a file on the shared storage service).
func (c *Client) CreateShareOffer(user Identity) ([]byte, error) {
	return c.encl.CreateExchangeOffer(user.Name, user.signer())
}

// AcceptShareGrant consumes a grant (m2 of Fig. 4) addressed to this
// client's enclave, returning the sealed rootkey and volume ID to Mount
// with. ownerPublicKey authenticates the grant's origin.
func (c *Client) AcceptShareGrant(grant []byte, ownerPublicKey ed25519.PublicKey) ([]byte, VolumeID, error) {
	return c.encl.AcceptGrant(grant, ownerPublicKey)
}

// BeginMutualShare starts the synchronous, mutually attested exchange
// variant (§VI-B): both sides use fresh ephemeral keys, giving the
// exchange perfect forward secrecy at the cost of requiring the offer
// and grant to belong to one session. Pair with Volume.GrantAccessMutual
// and Client.AcceptMutualShareGrant.
func (c *Client) BeginMutualShare(user Identity) ([]byte, error) {
	return c.encl.BeginMutualExchange(user.Name, user.signer())
}

// AcceptMutualShareGrant completes a mutual exchange started by
// BeginMutualShare, consuming this enclave's ephemeral key.
func (c *Client) AcceptMutualShareGrant(grant []byte, ownerPublicKey ed25519.PublicKey) ([]byte, VolumeID, error) {
	return c.encl.AcceptMutualGrant(grant, ownerPublicKey)
}

// Volume is a mounted NEXUS volume.
type Volume struct {
	client *Client
	fs     *vfs.FS
	id     VolumeID
}

// FS returns the volume's filesystem facade.
func (v *Volume) FS() *FS { return v.fs }

// ID returns the volume identifier.
func (v *Volume) ID() VolumeID { return v.id }

// AddUser grants an identity access to the volume (owner only). Sharing
// a rootkey additionally requires the exchange protocol (GrantAccess)
// unless the user operates on this same machine.
func (v *Volume) AddUser(name string, key ed25519.PublicKey) error {
	_, err := v.client.encl.AddUser(name, key)
	return err
}

// RemoveUser revokes an identity's volume access (owner only): a single
// supernode re-encryption, never a file re-encryption.
func (v *Volume) RemoveUser(name string) error {
	return v.client.encl.RemoveUser(name)
}

// Users lists the volume's authorized identities (owner first).
func (v *Volume) Users() ([]string, error) {
	users, err := v.client.encl.ListUsers()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(users))
	for _, u := range users {
		names = append(names, u.Name)
	}
	return names, nil
}

// GrantAccess performs the owner side of the rootkey exchange: it
// verifies the recipient's offer (signature + enclave attestation), adds
// them to the volume, and returns the grant to publish for them.
func (v *Volume) GrantAccess(offer []byte, userName string, userKey ed25519.PublicKey, owner Identity) ([]byte, error) {
	return v.client.encl.GrantAccess(offer, userName, userKey, owner.signer())
}

// GrantAccessMutual is the owner side of the synchronous, mutually
// attested exchange (§VI-B): the recipient's offer must come from
// Client.BeginMutualShare. Unlike GrantAccess, the owner's enclave is
// attested back to the recipient and both ECDH keys are ephemeral.
func (v *Volume) GrantAccessMutual(offer []byte, userName string, userKey ed25519.PublicKey, owner Identity) ([]byte, error) {
	return v.client.encl.GrantAccessMutual(offer, userName, userKey, owner.signer())
}

// SetACL grants rights on a directory (NoRights revokes).
func (v *Volume) SetACL(dirPath, userName string, rights Rights) error {
	return v.client.encl.SetACL(dirPath, userName, rights)
}

// SetGroupACL grants rights on a directory to an entire leaf subgroup
// of the volume's member tree (NoRights revokes the grant). Obtain a
// user's subgroup with UserGroup. Subgroup membership churn needs no
// ACL rewrite: rights resolve through the tree at check time.
func (v *Volume) SetGroupACL(dirPath string, group uint32, rights Rights) error {
	return v.client.encl.SetGroupACL(dirPath, group, rights)
}

// UserGroup returns the leaf subgroup of the volume's member tree the
// named user currently belongs to, for use with SetGroupACL.
func (v *Volume) UserGroup(userName string) (uint32, error) {
	return v.client.encl.UserGroup(userName)
}

// GetACL returns a directory's ACL keyed by username; subgroup grants
// appear as "group:<id>".
func (v *Volume) GetACL(dirPath string) (map[string]Rights, error) {
	return v.client.encl.GetACL(dirPath)
}
