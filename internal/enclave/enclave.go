// Package enclave implements the trusted portion of NEXUS: the reference
// monitor that owns the volume rootkey and performs every cryptographic
// and access-control decision (DSN'19 §IV).
//
// The Enclave type runs inside a simulated SGX enclave (internal/sgx).
// Its public methods are the ecall surface; storage I/O leaves through
// FreshnessProofStore, the ocall surface of the untrusted proof service
// (internal/freshtree), which every enclave runs over. The enclave:
//
//   - creates and mounts volumes, with the rootkey generated inside and
//     persisted only in SGX-sealed form (§IV, §VI-B);
//   - authenticates users with the nonce/signature challenge–response
//     over the encrypted supernode (§IV-B);
//   - implements the 9-call filesystem API of Table I, walking metadata
//     with parent-UUID validation and per-directory ACL checks (§IV-A,
//     §IV-C);
//   - encrypts file contents in fixed-size chunks with fresh keys on
//     every update (§VI-A), or seals a file of at most
//     metadata.MaxInlineSize bytes inside its filenode;
//   - shares the rootkey with other users' enclaves via the
//     attestation-bound ECDH exchange of Fig. 4 (§IV-B1);
//   - revokes users by re-encrypting only metadata (§VII-E).
package enclave

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"

	"nexus/internal/freshtree"
	"nexus/internal/metadata"
	"nexus/internal/obs"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// SupernodeObjectName is the well-known store name of a volume's
// supernode; all other objects are named by UUID.
const SupernodeObjectName = "supernode"

// The ocall surface and the sealed root's object name are declared once,
// in internal/freshtree, beside the proof service the enclave runs over.
type (
	ObjectStore         = freshtree.ObjectStore
	StreamObjectStore   = freshtree.StreamObjectStore
	FreshnessProofStore = freshtree.ProofStore
)

// MerkleRootObjectName is the store name of the sealed merkle root.
const MerkleRootObjectName = freshtree.RootObjectName

// Errors returned by the enclave.
var (
	// ErrNotAuthenticated reports an operation before a successful auth.
	ErrNotAuthenticated = errors.New("enclave: no authenticated user")
	// ErrAccessDenied reports an ACL denial.
	ErrAccessDenied = errors.New("enclave: access denied")
	// ErrNotMounted reports filesystem calls before a volume is mounted.
	ErrNotMounted = errors.New("enclave: no volume mounted")
	// ErrStaleMetadata reports a rollback: the storage service returned
	// metadata older than the enclave has already seen (§VI-C). The
	// enclave reports every rollback as ErrStaleObject, which wraps it.
	ErrStaleMetadata = errors.New("enclave: stale metadata (rollback detected)")
	// ErrStaleObject reports a rollback caught by the Merkle root: a
	// served object (or the root commitment itself) is provably older
	// than the volume state this enclave has committed to.
	ErrStaleObject = fmt.Errorf("%w: merkle freshness violation", ErrStaleMetadata)
	// ErrBadProof reports a freshness proof that is malformed or does
	// not verify against the enclave's root commitment — tampering or a
	// misbehaving proof server, never silently accepted.
	ErrBadProof = errors.New("enclave: freshness proof rejected")
	// ErrStoreUnavailable reports that the backing store could not
	// complete an ocall: the service was unreachable, the operation
	// timed out, or a mutating exchange was interrupted with unknown
	// outcome. It wraps the underlying backend sentinel, so callers can
	// distinguish the three via errors.Is.
	ErrStoreUnavailable = errors.New("enclave: storage unavailable or interrupted")
	// ErrBadAuth reports a failed challenge-response.
	ErrBadAuth = errors.New("enclave: authentication failed")
	// ErrExists, ErrNotFound, ErrNotDir, ErrNotFile, ErrNotEmpty mirror
	// the usual filesystem failures.
	ErrExists   = errors.New("enclave: entry already exists")
	ErrNotFound = errors.New("enclave: no such file or directory")
	ErrNotDir   = errors.New("enclave: not a directory")
	ErrNotFile  = errors.New("enclave: not a file")
	ErrNotEmpty = errors.New("enclave: directory not empty")
)

// Config parameterizes a NEXUS enclave instance.
type Config struct {
	// SGX is the enclave container providing sealing, attestation, EPC
	// and transition accounting. Required.
	SGX *sgx.Enclave
	// Store is the ocall surface to the backing store. Required. The
	// enclave binds every metadata version to a sealed Merkle root —
	// whole-volume rollback protection with O(1) enclave state (DESIGN.md
	// §15) — against proofs the store serves; a Store that is not already
	// a FreshnessProofStore is wrapped in freshtree.New.
	Store ObjectStore
	// IAS is the attestation service used to verify quotes during
	// rootkey exchanges. Optional; exchanges fail without it.
	IAS *sgx.AttestationService
	// BucketSize caps dirnode bucket entries (default 128, §VII).
	BucketSize uint32
	// ChunkSize is the file chunk size (default 1 MiB, §VII).
	ChunkSize uint32
	// Obs is the observability registry the enclave (and its SGX
	// container) meters into. Optional; a private registry is created
	// when nil. Share one registry across the stack (vfs → enclave →
	// sgx → afs) so a single scrape sees the whole data path.
	Obs *obs.Registry
}

// Stats counts enclave-side work for the evaluation breakdowns. Since
// the obs migration it is a snapshot assembled from the registry
// counters (see enclaveMetrics); the field semantics are unchanged.
type Stats struct {
	// MetadataLoads counts metadata objects decrypted.
	MetadataLoads int64
	// MetadataCacheHits counts loads served from the decrypted cache.
	MetadataCacheHits int64
	// MetadataFlushes counts metadata objects sealed and written.
	MetadataFlushes int64
	// MetadataBytesWritten totals sealed metadata bytes uploaded.
	MetadataBytesWritten int64
	// DataBytesWritten totals encrypted file content bytes uploaded.
	DataBytesWritten int64
	// ChunkPoolHits and ChunkPoolMisses are always 0: the data path
	// allocates its buffers and has no pool. They stay only because the
	// benchmark harness still reads them; both go once it stops.
	ChunkPoolHits   int64
	ChunkPoolMisses int64
}

// Enclave is a NEXUS enclave instance managing (at most) one mounted
// volume. All exported methods are safe for concurrent use; the enclave
// serializes operations the way a single-TCS SGX enclave would.
type Enclave struct {
	sgx   *sgx.Enclave
	store FreshnessProofStore
	ias   *sgx.AttestationService
	cfg   Config

	mu sync.Mutex

	// Volume state, populated by CreateVolume/Mount.
	rootKey      []byte
	super        *metadata.Supernode
	superBlob    []byte // current sealed supernode (signed during auth)
	superVersion uint64

	// Authentication state.
	pendingNonce []byte
	pendingUser  ed25519.PublicKey
	user         metadata.User
	authed       bool

	// Exchange keypair (Fig 4 "Setup"): generated in-enclave; the
	// private key never leaves.
	exchange *exchangeKey
	// pendingMutual is the ephemeral keypair of an in-flight synchronous
	// exchange (§VI-B variant); consumed by AcceptMutualGrant.
	pendingMutual *ecdh.PrivateKey

	cache *metaCache

	// The enclave's entire freshness state is the root commitment and
	// epoch — O(1), the claim the freshness sweep measures. See
	// freshness.go.
	mkRoot  [32]byte
	mkEpoch uint64
	mkSeen  bool
	// mkResumed marks a commitment handed over by ResumeFreshnessEpoch
	// and not yet confirmed against the store: a floor for the first
	// load, which therefore still has to happen.
	mkResumed bool
	// mkBlob is the sealed root this enclave last put or opened, which
	// commits to mkRoot at mkEpoch; nil when they came from elsewhere. A
	// re-read of the same bytes needs no open (loadMerkleRootLocked).
	mkBlob []byte

	// wb is the write-back dirty set. Guarded by mu.
	wb *dirtySet

	// queued are the store calls the next exit makes, stash the reads an
	// exit made ahead of use (exitLocked, DESIGN.md §11.5). Guarded by mu.
	queued []*storeCall
	stash  []*storeCall

	// hints are the read-ahead hints of read-only walks (readAhead).
	hints walkHints
	// walking marks an ecall that is a read-only walk (enterWalkLocked).
	// Guarded by mu.
	walking bool

	metrics enclaveMetrics
}

// enclaveMetrics holds the enclave's instrument handles, resolved once
// at construction so hot-path recording is a few atomic ops. The
// legacy Stats accessor is a shim over these counters.
// Metric names are catalogued in DESIGN.md §11.
type enclaveMetrics struct {
	reg *obs.Registry

	metadataLoads     *obs.Counter // enclave_metadata_loads_total
	metadataCacheHits *obs.Counter // enclave_metadata_cache_hits_total
	metadataFlushes   *obs.Counter // enclave_metadata_flushes_total
	metadataBytes     *obs.Counter // enclave_metadata_bytes_written_total
	dataBytes         *obs.Counter // enclave_data_bytes_written_total
	chunks            *obs.Counter // enclave_chunk_crypto_chunks_total
	chunkLat          *obs.Histogram
	metadataDirty     *obs.Counter // enclave_metadata_dirty_total
	flushBatches      *obs.Counter // enclave_flush_batches_total
	dirtyGauge        *obs.Gauge   // enclave_metadata_dirty
	proofs            *obs.Counter // enclave_freshness_proofs_total
	proofBytes        *obs.Counter // enclave_freshness_proof_bytes_total
	rootUpdates       *obs.Counter // enclave_freshness_root_updates_total
	prefetchUsed      *obs.Counter // enclave_walk_prefetch_used_total
	prefetchDiscarded *obs.Counter // enclave_walk_prefetch_discarded_total
	drainFailures     *obs.Counter // enclave_best_effort_drain_failures_total

	// metaIO and dataIO meter the two store-call classes of the Table
	// 5a/5b breakdowns (makeCall): a data object's bytes, and the rest.
	metaIO ioMeter
	dataIO ioMeter

	tracer *obs.Tracer
}

// ioMeter is the pair of instruments a store call charges: a cumulative
// nanosecond counter and a latency histogram.
type ioMeter struct {
	ns  *obs.Counter
	lat *obs.Histogram
}

func (m *enclaveMetrics) bind(reg *obs.Registry) {
	m.reg = reg
	m.metadataLoads = reg.Counter("enclave_metadata_loads_total")
	m.metadataCacheHits = reg.Counter("enclave_metadata_cache_hits_total")
	m.metadataFlushes = reg.Counter("enclave_metadata_flushes_total")
	m.metadataBytes = reg.Counter("enclave_metadata_bytes_written_total")
	m.dataBytes = reg.Counter("enclave_data_bytes_written_total")
	m.chunks = reg.Counter("enclave_chunk_crypto_chunks_total")
	m.chunkLat = reg.Histogram("enclave_chunk_crypto_seconds")
	m.metadataDirty = reg.Counter("enclave_metadata_dirty_total")
	m.flushBatches = reg.Counter("enclave_flush_batches_total")
	m.dirtyGauge = reg.Gauge("enclave_metadata_dirty")
	m.proofs = reg.Counter("enclave_freshness_proofs_total")
	m.proofBytes = reg.Counter("enclave_freshness_proof_bytes_total")
	m.rootUpdates = reg.Counter("enclave_freshness_root_updates_total")
	m.prefetchUsed = reg.Counter("enclave_walk_prefetch_used_total")
	m.prefetchDiscarded = reg.Counter("enclave_walk_prefetch_discarded_total")
	m.drainFailures = reg.Counter("enclave_best_effort_drain_failures_total")
	m.metaIO = ioMeter{ns: reg.Counter("enclave_metadata_io_ns_total"), lat: reg.Histogram("enclave_metadata_io_seconds")}
	m.dataIO = ioMeter{ns: reg.Counter("enclave_data_io_ns_total"), lat: reg.Histogram("enclave_data_io_seconds")}
	m.tracer = reg.Tracer()
}

// New creates an enclave instance from cfg.
func New(cfg Config) (*Enclave, error) {
	if cfg.SGX == nil {
		return nil, fmt.Errorf("enclave: Config.SGX is required")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("enclave: Config.Store is required")
	}
	if cfg.BucketSize == 0 {
		cfg.BucketSize = metadata.DefaultBucketSize
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = metadata.DefaultChunkSize
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	store, ok := cfg.Store.(FreshnessProofStore)
	if !ok {
		store = freshtree.New(cfg.Store)
	}
	e := &Enclave{
		sgx:   cfg.SGX,
		store: store,
		ias:   cfg.IAS,
		cfg:   cfg,
		wb:    newDirtySet(),
	}
	e.cache = newMetaCache(cfg.SGX, &e.hints)
	e.metrics.bind(cfg.Obs)
	// The SGX container meters its transitions into the same registry,
	// so one scrape covers ecalls, metadata I/O and chunk crypto.
	cfg.SGX.SetObs(cfg.Obs)
	// A store that can self-instrument (vfs.VersionedStore) joins the
	// same registry, so its per-object spans nest under the ecall spans.
	if in, ok := store.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(cfg.Obs)
	}
	if err := e.ecall(noAuth, func() (err error) {
		e.exchange, err = newExchangeKey()
		return err
	}); err != nil {
		return nil, fmt.Errorf("enclave: generating exchange key: %w", err)
	}
	return e, nil
}

// Stats returns a snapshot of the enclave's counters, assembled from
// the obs registry (the evaluation-breakdown semantics predate the
// registry and are preserved exactly).
func (e *Enclave) Stats() Stats {
	m := &e.metrics
	return Stats{
		MetadataLoads:        m.metadataLoads.Value(),
		MetadataCacheHits:    m.metadataCacheHits.Value(),
		MetadataFlushes:      m.metadataFlushes.Value(),
		MetadataBytesWritten: m.metadataBytes.Value(),
		DataBytesWritten:     m.dataBytes.Value(),
	}
}

// SGX exposes the underlying SGX container (for transition/time stats).
func (e *Enclave) SGX() *sgx.Enclave { return e.sgx }

// Obs returns the registry the enclave meters into, so layers above
// (vfs) and beside (afs client) can share it.
func (e *Enclave) Obs() *obs.Registry { return e.metrics.reg }

// DropCaches discards the in-enclave decrypted metadata cache, forcing
// subsequent operations to re-fetch and re-verify (the benchmark's
// cold-cache runs; the paper flushes the AFS cache before each run).
// It first drains pending metadata, since a dirty node evicted from
// memory without an on-store copy would be lost. The drain is
// best-effort: an unreachable store must not block a cache drop, so its
// failure is counted in enclave_best_effort_drain_failures_total.
func (e *Enclave) DropCaches() {
	if err := e.SyncMetadata(); err != nil {
		e.metrics.drainFailures.Inc()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache.clear()
}

// CreateVolume initializes a new volume on the backing store: it
// generates the rootkey inside the enclave, writes the supernode and
// empty root dirnode, and returns the SGX-sealed rootkey for local
// persistence. The caller must still authenticate (Mount flow) before
// using the volume.
func (e *Enclave) CreateVolume(ownerName string, ownerKey ed25519.PublicKey) (sealedRootKey []byte, err error) {
	err = e.ecall(noAuth, func() error {
		if e.rootKey != nil {
			return fmt.Errorf("enclave: a volume is already active")
		}
		rootKey, err := metadata.NewRootKey()
		if err != nil {
			return err
		}
		super, err := metadata.NewSupernode(ownerName, ownerKey)
		if err != nil {
			return err
		}

		e.rootKey = rootKey
		e.super = super

		// The root dirnode (its parent pointer binds it to the supernode),
		// then the supernode: each is committed by a drain, and the last
		// root put leaves before the rootkey is sealed.
		root := metadata.NewDirnode(super.RootDir, super.VolumeUUID, e.cfg.BucketSize)
		if err = e.flushDirnodeLocked(root, 1); err == nil {
			err = e.drainLocked()
		}
		if err == nil {
			err = e.flushSupernodeLocked()
		}
		if err == nil {
			err = e.drainLocked()
		}
		if err == nil {
			err = e.exitLocked()
		}
		if err != nil {
			e.rootKey, e.super = nil, nil
			return fmt.Errorf("writing the new volume: %w", err)
		}

		sealedRootKey, err = e.sgx.Seal(rootKey, super.VolumeUUID[:])
		if err != nil {
			return fmt.Errorf("sealing rootkey: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sealedRootKey, nil
}

// VolumeUUID returns the active volume's UUID (for sealing AAD and
// diagnostics).
func (e *Enclave) VolumeUUID() (uuid.UUID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.super == nil {
		return uuid.Nil, ErrNotMounted
	}
	return e.super.VolumeUUID, nil
}

// BeginAuth starts the challenge–response protocol of §IV-B: the caller
// presents their public key and the sealed rootkey; the enclave unseals
// the rootkey, loads and verifies the supernode, and returns a fresh
// nonce together with the encrypted supernode blob the user must sign.
func (e *Enclave) BeginAuth(userKey ed25519.PublicKey, sealedRootKey []byte, volumeID uuid.UUID) (nonce, supernodeBlob []byte, err error) {
	err = e.ecall(noAuth, func() error {
		if len(userKey) != ed25519.PublicKeySize {
			return fmt.Errorf("%w: bad public key length", ErrBadAuth)
		}

		rootKey, err := e.sgx.Unseal(sealedRootKey, volumeID[:])
		if err != nil {
			return fmt.Errorf("%w: unsealing rootkey: %v", ErrBadAuth, err)
		}
		if len(rootKey) != metadata.RootKeySize {
			return fmt.Errorf("%w: sealed blob is not a rootkey", ErrBadAuth)
		}
		e.rootKey = rootKey
		if err := e.loadSupernodeLocked(); err != nil {
			e.rootKey = nil
			return err
		}

		e.pendingNonce = make([]byte, 16)
		if _, err := rand.Read(e.pendingNonce); err != nil {
			return fmt.Errorf("enclave: generating nonce: %w", err)
		}
		e.pendingUser = userKey
		nonce = append([]byte(nil), e.pendingNonce...)
		supernodeBlob = append([]byte(nil), e.superBlob...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return nonce, supernodeBlob, nil
}

// CompleteAuth finishes the challenge–response: signature must be the
// user's Ed25519 signature over nonce ‖ encrypted-supernode. On success
// the user's identity is cached in the enclave and the volume is usable.
func (e *Enclave) CompleteAuth(signature []byte) error {
	return e.ecall(noAuth, func() error {
		if e.pendingNonce == nil || e.pendingUser == nil {
			return fmt.Errorf("%w: no authentication in progress", ErrBadAuth)
		}
		nonce, userKey := e.pendingNonce, e.pendingUser
		e.pendingNonce, e.pendingUser = nil, nil

		// (ii) the key must appear in the supernode's user table.
		user, err := e.super.FindUserByKey(userKey)
		if err != nil {
			return fmt.Errorf("%w: public key not authorized for this volume", ErrBadAuth)
		}
		// (i) the caller must own the key: verify the signature over
		// nonce ‖ ENC(rootkey, supernode).
		msg := make([]byte, 0, len(nonce)+len(e.superBlob))
		msg = append(msg, nonce...)
		msg = append(msg, e.superBlob...)
		if !verifySignature(userKey, msg, signature) {
			return fmt.Errorf("%w: challenge signature invalid", ErrBadAuth)
		}
		e.user = user
		e.authed = true
		return nil
	})
}

// isOwnerLocked reports whether the authenticated user owns the volume.
func (e *Enclave) isOwnerLocked() bool {
	return e.authed && e.user.ID == metadata.OwnerUserID
}

// requireAuthLocked guards filesystem entry points.
func (e *Enclave) requireAuthLocked() error {
	if e.rootKey == nil || e.super == nil {
		return ErrNotMounted
	}
	if !e.authed {
		return ErrNotAuthenticated
	}
	return nil
}

// Whether an ecall's body needs an authenticated user (requireAuthLocked).
const (
	noAuth   = false
	needAuth = true
)

// ecall is the one way into the enclave: every exported operation that
// enters it is one call of ecall, so the protocol of §V — each body under
// mu, ending in one final exit — is written once (DESIGN.md §11.5). It
// makes the sgx.Ecall transition, takes mu, checks authentication when
// auth is needAuth, runs bodyLocked and always ends in leaveLocked.
//
// A body that observed a torn snapshot — an overflow bucket whose MAC
// does not match the main object's record, or one that is gone, or a data
// object that is gone or fails against its filenode — is run again, a
// bounded number of times. Writers put a dirnode's overflow buckets and
// then its main object, and a file's data object and then its filenode,
// as separate store writes, and the storage layer's invalidations
// propagate per object, so an unlocked reader can see a fresh bucket or
// data object against a stale main object or filenode, or outlive the
// objects the copy it fetched names; the store then already holds a newer
// copy, which the retried walk fetches — unless the copy that named the
// bucket is this enclave's own dirty write-back shadow, which every walk
// would return again: that one is re-based on the store's main object
// first, in a transition of its own. That transition also re-reads the
// freshness root: a torn read means a peer committed since the copies
// the walk fetched, and a store that answers unlocked reads from the
// snapshot of the last root it served moves on only when a read of the
// root shows it the peer's (DESIGN.md §11.5). (A directory that fits
// bucket 0 and an inline file are one object and cannot tear.)
// Such an error always precedes any side effect, so the whole operation
// is safe to retry; a persistent one is the real signal — a rolled back,
// substituted or withheld object (§V-B) — and is returned. Store faults
// (ErrStoreUnavailable) are not retried: a mutation that died with
// unknown outcome must surface so the caller can re-validate.
func (e *Enclave) ecall(auth bool, bodyLocked func() error) error {
	enter := func(stepLocked func() error) error {
		return e.sgx.Ecall(func() (err error) {
			e.mu.Lock()
			defer e.mu.Unlock()
			defer e.leaveLocked(&err)
			return stepLocked()
		})
	}
	for attempt := 0; ; attempt++ {
		err := enter(func() error {
			if auth {
				if err := e.requireAuthLocked(); err != nil {
					return err
				}
			}
			return bodyLocked()
		})
		var torn *tornError
		if err == nil || attempt >= 3 || !errors.As(err, &torn) {
			return err
		}
		// Give the lagging invalidation a moment to land.
		time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		if rerr := enter(func() error {
			if err := e.loadMerkleRootLocked(true); err != nil {
				return err
			}
			if n, ok := e.wb.nodes[torn.dir]; ok && n.dir != nil && !n.isNew {
				return e.rebaseDirtyDirnodeLocked(torn.dir, n)
			}
			return nil
		}); rerr != nil && !errors.As(rerr, &torn) {
			return rerr
		}
	}
}

// --- User administration (owner only, §IV-C) ---

// AddUser grants a new identity access to the volume. Only the owner may
// administer the user table; the change is one metadata update.
func (e *Enclave) AddUser(name string, key ed25519.PublicKey) (userID uint32, err error) {
	err = e.ecall(needAuth, func() error {
		if !e.isOwnerLocked() {
			return fmt.Errorf("%w: only the owner administers users", ErrAccessDenied)
		}
		return e.updateSupernodeLocked(func() (err error) {
			userID, err = e.super.AddUser(name, key)
			return err
		})
	})
	if err != nil {
		return 0, err
	}
	return userID, nil
}

// RemoveUser revokes a user's volume access. Because keys never leave
// the enclave, this is a single metadata re-encryption: no file data is
// touched (§VII-E).
func (e *Enclave) RemoveUser(name string) error {
	return e.ecall(needAuth, func() error {
		if !e.isOwnerLocked() {
			return fmt.Errorf("%w: only the owner administers users", ErrAccessDenied)
		}
		// One supernode re-encryption: the user leaves the user table
		// and its leaf subgroup; file data is untouched (§VII-E).
		return e.updateSupernodeLocked(func() error {
			_, err := e.super.RemoveUser(name)
			return err
		})
	})
}

// ListUsers returns the owner, then every other user in ascending ID.
func (e *Enclave) ListUsers() ([]metadata.User, error) {
	var out []metadata.User
	err := e.ecall(needAuth, func() error {
		out = e.super.Users()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// updateSupernodeLocked changes the supernode (its member list) in one
// commit with the drain: it is re-read under the root lock, so fn applies
// to the freshest version (§V-A), and put back before the pending
// metadata, which is sealed after the change (§VII-E), and the root. An
// admission commits the root too, though it only widens access: it hands
// out the next member ID, which a replay of the supernode before it would
// hand out again (DESIGN.md §6, property F1). A failed commit whose
// supernode put did not land leaves the enclave with the supernode it
// held before: fn changed only the copy the re-read decoded. One whose
// put landed keeps the change, as the store does — a reader accepts an
// object newer than the root records (§15.2).
func (e *Enclave) updateSupernodeLocked(fn func() error) error {
	held, heldBlob, heldVersion := e.super, e.superBlob, e.superVersion
	landed := false
	err := e.commitWithDrainLocked(getsAhead([]aheadRead{{name: SupernodeObjectName}}), func() error {
		if err := e.loadSupernodeLocked(); err != nil {
			return err
		}
		if err := fn(); err != nil {
			return err
		}
		if err := e.flushSupernodeLocked(); err != nil {
			return err
		}
		e.onSuccessLocked(func() { landed = true })
		return nil
	})
	if err != nil && !landed {
		e.super, e.superBlob, e.superVersion = held, heldBlob, heldVersion
	}
	return err
}

// loadSupernodeLocked fetches, verifies and decodes the supernode.
func (e *Enclave) loadSupernodeLocked() error {
	blob, _, err := e.fetchObject(SupernodeObjectName)
	if err != nil {
		return fmt.Errorf("fetching supernode: %w", err)
	}
	p, body, err := metadata.Open(e.rootKey, blob)
	if err != nil {
		return fmt.Errorf("verifying supernode: %w", err)
	}
	if p.Type != metadata.TypeSupernode {
		return fmt.Errorf("%w: object %q is a %s", metadata.ErrMalformed, SupernodeObjectName, p.Type)
	}
	// The supernode's version is bound to the root commitment like every
	// other metadata object — a whole-snapshot rollback fails right here,
	// before authentication can proceed.
	if err := e.checkFreshnessLocked(p.UUID, p.Version); err != nil {
		return err
	}
	super, err := metadata.DecodeSupernodeBody(body)
	if err != nil {
		return err
	}
	e.super = super
	e.superBlob = blob
	e.superVersion = p.Version
	return nil
}

// flushSupernodeLocked seals the supernode, bumping its version, and
// queues its upload for the caller's commit.
func (e *Enclave) flushSupernodeLocked() error {
	e.superVersion++
	p := metadata.Preamble{
		Type:    metadata.TypeSupernode,
		UUID:    e.super.VolumeUUID,
		Parent:  uuid.Nil,
		Version: e.superVersion,
	}
	blob, err := metadata.Seal(e.rootKey, p, e.super.EncodeBody())
	if err != nil {
		return fmt.Errorf("sealing supernode: %w", err)
	}
	id, version := e.super.VolumeUUID, e.superVersion
	e.putObject(SupernodeObjectName, blob, map[uuid.UUID]uint64{id: version}, func(c *storeCall) error {
		if c.err != nil {
			return fmt.Errorf("uploading supernode: %w", c.err)
		}
		e.superBlob = blob
		e.metrics.metadataFlushes.Inc()
		e.metrics.metadataBytes.Add(int64(len(blob)))
		return nil
	})
	return nil
}
