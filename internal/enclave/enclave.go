// Package enclave implements the trusted portion of NEXUS: the reference
// monitor that owns the volume rootkey and performs every cryptographic
// and access-control decision (DSN'19 §IV).
//
// The Enclave type runs inside a simulated SGX enclave (internal/sgx).
// Its public methods are the ecall surface; storage I/O leaves through
// ObjectStore, the ocall surface implemented by the untrusted layer
// (internal/vfs). The enclave:
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

	"nexus/internal/metadata"
	"nexus/internal/obs"
	"nexus/internal/parallel"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// SupernodeObjectName is the well-known store name of a volume's
// supernode; all other objects are named by UUID.
const SupernodeObjectName = "supernode"

// ObjectStore is the ocall surface: the untrusted layer's access to the
// backing store. Implementations return a version number that increases
// on every update of an object; the enclave uses it to validate its
// in-enclave metadata cache (the AFS callback mechanism keeps the
// untrusted file cache itself fresh).
//
// Buffer ownership at this boundary (DESIGN.md §14): the []byte passed
// to PutVersioned (and every segment handed out by a
// StreamObjectStore's next callback) remains owned by the enclave and
// is only on loan for the duration of the call — the enclave leases it
// from a buffer pool and re-leases it to later operations the moment
// the call returns. Implementations must copy anything they retain
// (caches, queues, logs) and must never stash the slice itself.
// Symmetrically, buffers returned by GetVersioned become the enclave's
// to keep.
type ObjectStore interface {
	// GetVersioned returns an object's contents and current version.
	GetVersioned(name string) (data []byte, version uint64, err error)
	// PutVersioned replaces an object and returns its new version.
	PutVersioned(name string, data []byte) (version uint64, err error)
	// Delete removes an object.
	Delete(name string) error
	// Lock takes the object's exclusive advisory lock (flock in the
	// prototype, §V-A).
	Lock(name string) (release func(), err error)
}

// StreamObjectStore is an optional ObjectStore upgrade: a store that
// can transmit an object while the producer is still generating it, so
// chunk encryption overlaps the upload instead of serializing in front
// of it. The enclave type-asserts for it on large writes; stores
// without it simply receive the assembled blob via PutVersioned.
type StreamObjectStore interface {
	ObjectStore
	// PutVersionedStream replaces an object with exactly total bytes
	// drawn from next. next returns successive segments in object order
	// — each valid only until the following next call (ownership rules
	// above) — and (nil, nil) at end of stream; a non-nil error aborts
	// the put. The put is atomic: a partially transferred stream must
	// never become visible as the object's contents.
	PutVersionedStream(name string, total int, next func() ([]byte, error)) (version uint64, err error)
}

// Errors returned by the enclave.
var (
	// ErrNotAuthenticated reports an operation before a successful auth.
	ErrNotAuthenticated = errors.New("enclave: no authenticated user")
	// ErrAccessDenied reports an ACL denial.
	ErrAccessDenied = errors.New("enclave: access denied")
	// ErrNotMounted reports filesystem calls before a volume is mounted.
	ErrNotMounted = errors.New("enclave: no volume mounted")
	// ErrStaleMetadata reports a rollback: the storage service returned
	// an object older than one this enclave has already seen (§VI-C).
	ErrStaleMetadata = errors.New("enclave: stale metadata (rollback detected)")
	// ErrStaleObject reports a rollback caught by merkle freshness mode:
	// a served object (or the root commitment itself) is provably older
	// than the volume state this enclave has committed to. It wraps
	// ErrStaleMetadata so existing errors.Is checks keep matching.
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
	// Store is the ocall surface to the backing store. Required. When it
	// also implements FreshnessProofStore (vfs.NewFreshnessStore wraps any
	// plain store) the enclave binds every metadata version to a sealed
	// Merkle root — whole-volume rollback protection with O(1) enclave
	// state (DESIGN.md §15); over a plain store only the per-object
	// version memory applies.
	Store ObjectStore
	// IAS is the attestation service used to verify quotes during
	// rootkey exchanges. Optional; exchanges fail without it.
	IAS *sgx.AttestationService
	// BucketSize caps dirnode bucket entries (default 128, §VII).
	BucketSize uint32
	// ChunkSize is the file chunk size (default 1 MiB, §VII).
	ChunkSize uint32
	// CryptoWorkers bounds the chunk-crypto fan-out on the WriteFile/
	// ReadFile path (0 = GOMAXPROCS with a serial fallback for small
	// files, 1 = always serial; see internal/metadata and DESIGN.md §10).
	CryptoWorkers int
	// WritebackMaxOps caps the number of deferred mutations before the
	// dirty set drains inline (default 64). Creates and removes defer
	// their metadata flushes into a dirty set drained in dependency
	// order at explicit barriers (SyncMetadata, ACL/user/sharing
	// changes, DropCaches) and at the high-water marks (this many
	// deferred mutations, 4 MiB of estimated batched metadata); 1 drains
	// after every mutation, which is per-op durability. See
	// internal/enclave/writeback.go and DESIGN.md §12.
	WritebackMaxOps int
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
	// MetadataIOTime is wall time spent in ocalls touching metadata
	// objects (fetch, store, lock) — the "Metadata I/O" rows of Tables
	// 5a/5b.
	MetadataIOTime time.Duration
	// DataIOTime is wall time spent in ocalls moving encrypted file
	// contents.
	DataIOTime time.Duration
	// ChunkPoolHits and ChunkPoolMisses report the sealed-buffer arena's
	// health: misses mean the data path is allocating fresh spans
	// instead of recycling them (mirrors
	// enclave_chunk_pool_{hits,misses}_total).
	ChunkPoolHits   int64
	ChunkPoolMisses int64
}

// Enclave is a NEXUS enclave instance managing (at most) one mounted
// volume. All exported methods are safe for concurrent use; the enclave
// serializes operations the way a single-TCS SGX enclave would.
type Enclave struct {
	sgx   *sgx.Enclave
	store ObjectStore
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

	freshness map[uuid.UUID]uint64
	// freshness is the per-object version memory, used only over a
	// plain store. When the store serves proofs (proofStore non-nil,
	// asserted once in New) the enclave's entire freshness state is the
	// root commitment and epoch below — O(1), the claim the freshness
	// sweep measures. See freshness.go.
	proofStore FreshnessProofStore
	mkRoot     [32]byte
	mkEpoch    uint64
	mkSeen     bool
	// mkResumed marks a commitment handed over by ResumeFreshnessEpoch
	// and not yet confirmed against the store: a floor for the first
	// load, which therefore still has to happen.
	mkResumed bool

	// wb is the write-back dirty set; freshSink, when non-nil, absorbs
	// freshness updates during a batch so the root advances once per
	// commit instead of once per object. Both are guarded by mu.
	wb        *dirtySet
	freshSink map[uuid.UUID]uint64

	// walkStash holds the reads a warm walk fetched in one ocall, in walk
	// order, until fetchObject consumes them; the ecall that made them
	// drops the rest (prefetchWalkLocked). Guarded by mu.
	walkStash []walkFetch

	// arena pools the data path's sealed-chunk buffers (DESIGN.md §14).
	// Per-enclave rather than process-wide so the pool-health counters
	// it mirrors into metrics are this enclave's alone.
	arena *parallel.Arena

	metrics enclaveMetrics
}

// enclaveMetrics holds the enclave's instrument handles, resolved once
// at construction so hot-path recording is a few atomic ops. The
// legacy Stats/ResetStats accessors are shims over these counters.
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
	poolHits          *obs.Counter // enclave_chunk_pool_hits_total
	poolMisses        *obs.Counter // enclave_chunk_pool_misses_total
	workers           *obs.Gauge   // enclave_crypto_workers
	metadataDirty     *obs.Counter // enclave_metadata_dirty_total
	flushBatches      *obs.Counter // enclave_flush_batches_total
	dirtyGauge        *obs.Gauge   // enclave_metadata_dirty
	groupWraps        *obs.Counter // enclave_groupkey_wraps_total
	groupWrapBytes    *obs.Counter // enclave_groupkey_wrap_bytes_total
	groupUnwraps      *obs.Counter // enclave_groupkey_unwraps_total
	proofs            *obs.Counter // enclave_freshness_proofs_total
	proofBytes        *obs.Counter // enclave_freshness_proof_bytes_total
	rootUpdates       *obs.Counter // enclave_freshness_root_updates_total
	prefetchUsed      *obs.Counter // enclave_walk_prefetch_used_total
	prefetchDiscarded *obs.Counter // enclave_walk_prefetch_discarded_total

	// metaIO and dataIO meter the two ocall classes of the Table 5a/5b
	// breakdowns (metadata fetch/store/lock vs encrypted file content).
	metaIO ocallMeter
	dataIO ocallMeter

	tracer *obs.Tracer
}

// ocallMeter is the pair of instruments a timedOcall charges: a
// cumulative nanosecond counter (backs the Stats duration fields) and
// a latency histogram (backs tail-latency reporting).
type ocallMeter struct {
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
	m.poolHits = reg.Counter("enclave_chunk_pool_hits_total")
	m.poolMisses = reg.Counter("enclave_chunk_pool_misses_total")
	m.workers = reg.Gauge("enclave_crypto_workers")
	m.metadataDirty = reg.Counter("enclave_metadata_dirty_total")
	m.flushBatches = reg.Counter("enclave_flush_batches_total")
	m.dirtyGauge = reg.Gauge("enclave_metadata_dirty")
	m.groupWraps = reg.Counter("enclave_groupkey_wraps_total")
	m.groupWrapBytes = reg.Counter("enclave_groupkey_wrap_bytes_total")
	m.groupUnwraps = reg.Counter("enclave_groupkey_unwraps_total")
	m.proofs = reg.Counter("enclave_freshness_proofs_total")
	m.proofBytes = reg.Counter("enclave_freshness_proof_bytes_total")
	m.rootUpdates = reg.Counter("enclave_freshness_root_updates_total")
	m.prefetchUsed = reg.Counter("enclave_walk_prefetch_used_total")
	m.prefetchDiscarded = reg.Counter("enclave_walk_prefetch_discarded_total")
	m.metaIO = ocallMeter{ns: reg.Counter("enclave_metadata_io_ns_total"), lat: reg.Histogram("enclave_metadata_io_seconds")}
	m.dataIO = ocallMeter{ns: reg.Counter("enclave_data_io_ns_total"), lat: reg.Histogram("enclave_data_io_seconds")}
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
	proofStore, _ := cfg.Store.(FreshnessProofStore)
	e := &Enclave{
		sgx:        cfg.SGX,
		store:      cfg.Store,
		ias:        cfg.IAS,
		cfg:        cfg,
		freshness:  make(map[uuid.UUID]uint64),
		proofStore: proofStore,
		wb:         newDirtySet(cfg.WritebackMaxOps),
		cache:      newMetaCache(cfg.SGX),
	}
	e.metrics.bind(cfg.Obs)
	e.arena = parallel.NewArena()
	e.arena.SetCounters(e.metrics.poolHits.Inc, e.metrics.poolMisses.Inc)
	// The SGX container meters its transitions into the same registry,
	// so one scrape covers ecalls, metadata I/O and chunk crypto.
	cfg.SGX.SetObs(cfg.Obs)
	// A store that can self-instrument (vfs.VersionedStore) joins the
	// same registry, so its per-object spans nest under the ecall spans.
	if in, ok := cfg.Store.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(cfg.Obs)
	}
	e.metrics.workers.Set(int64(cfg.CryptoWorkers))
	var err error
	if err = e.sgx.Ecall(func() error {
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
		MetadataIOTime:       time.Duration(m.metaIO.ns.Value()),
		DataIOTime:           time.Duration(m.dataIO.ns.Value()),
		ChunkPoolHits:        m.poolHits.Value(),
		ChunkPoolMisses:      m.poolMisses.Value(),
	}
}

// ResetStats zeroes the counters (and the underlying SGX transition
// stats), used between benchmark phases.
func (e *Enclave) ResetStats() {
	m := &e.metrics
	m.metadataLoads.Reset()
	m.metadataCacheHits.Reset()
	m.metadataFlushes.Reset()
	m.metadataBytes.Reset()
	m.dataBytes.Reset()
	m.chunks.Reset()
	m.chunkLat.Reset()
	m.poolHits.Reset()
	m.poolMisses.Reset()
	m.metaIO.ns.Reset()
	m.metaIO.lat.Reset()
	m.dataIO.ns.Reset()
	m.dataIO.lat.Reset()
	m.metadataDirty.Reset()
	m.flushBatches.Reset()
	m.groupWraps.Reset()
	m.groupWrapBytes.Reset()
	m.groupUnwraps.Reset()
	m.proofs.Reset()
	m.proofBytes.Reset()
	m.rootUpdates.Reset()
	m.prefetchUsed.Reset()
	m.prefetchDiscarded.Reset()
	e.sgx.ResetStats()
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
// memory without an on-store copy would be lost.
func (e *Enclave) DropCaches() {
	//lint:ignore unchecked-crypto-error best-effort pre-drain; an unreachable store must not block a cache drop
	_ = e.SyncMetadata()
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
	err = e.sgx.Ecall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
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
		// Fresh volumes start with the membership key tree in place
		// (owner enrolled); legacy volumes migrate on first AddUser.
		if _, err := e.ensureGroupTreeLocked(); err != nil {
			e.rootKey = nil
			e.super = nil
			return err
		}

		// Root dirnode: parent pointer binds it to the supernode.
		root := metadata.NewDirnode(super.RootDir, super.VolumeUUID, e.cfg.BucketSize)
		if err := e.flushDirnodeLocked(root, 1); err != nil {
			e.rootKey = nil
			e.super = nil
			return fmt.Errorf("writing root dirnode: %w", err)
		}
		if err := e.flushSupernodeLocked(); err != nil {
			e.rootKey = nil
			e.super = nil
			return fmt.Errorf("writing supernode: %w", err)
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
	err = e.sgx.Ecall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
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
	return e.sgx.Ecall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
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
		// (iii) members of the key tree must additionally hold a wrap
		// chain reaching the current root — a revoked-then-stale client
		// fails here even if its table entry were somehow replayed.
		if err := e.groupAuthenticateLocked(user.ID); err != nil {
			return err
		}
		e.user = user
		e.authed = true
		return nil
	})
}

// CurrentUser returns the authenticated identity.
func (e *Enclave) CurrentUser() (metadata.User, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.authed {
		return metadata.User{}, ErrNotAuthenticated
	}
	return e.user, nil
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

// --- User administration (owner only, §IV-C) ---

// AddUser grants a new identity access to the volume. Only the owner may
// administer the user table; the change is one metadata update.
func (e *Enclave) AddUser(name string, key ed25519.PublicKey) (userID uint32, err error) {
	err = e.sgx.Ecall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		if !e.isOwnerLocked() {
			return fmt.Errorf("%w: only the owner administers users", ErrAccessDenied)
		}
		if err := e.drainWithRetryLocked(); err != nil {
			return err
		}
		return e.updateSupernodeLocked(func() error {
			var err error
			userID, err = e.super.AddUser(name, key)
			if err != nil {
				return err
			}
			if err := e.groupAddLocked(userID); err != nil {
				// Keep the in-memory table consistent with the store:
				// nothing has been flushed yet, so undo the table entry.
				//lint:ignore unchecked-crypto-error rollback of an unflushed add
				_, _ = e.super.RemoveUser(name)
				return err
			}
			return nil
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
	return e.sgx.Ecall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		if !e.isOwnerLocked() {
			return fmt.Errorf("%w: only the owner administers users", ErrAccessDenied)
		}
		if err := e.drainWithRetryLocked(); err != nil {
			return err
		}
		return e.updateSupernodeLocked(func() error {
			removedID, err := e.super.RemoveUser(name)
			if err != nil {
				return err
			}
			// O(log n) path rotation: only the evicted user's leaf-to-root
			// keys are re-wrapped; file data is untouched (§VII-E).
			return e.groupRevokeLocked(removedID)
		})
	})
}

// ListUsers returns the owner plus all authorized users.
func (e *Enclave) ListUsers() ([]metadata.User, error) {
	var out []metadata.User
	err := e.sgx.Ecall(func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.requireAuthLocked(); err != nil {
			return err
		}
		out = append(out, e.super.Owner)
		out = append(out, e.super.Users...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// updateSupernodeLocked changes the supernode (user table or membership
// key tree) in one commit: it is re-read under the root lock, so fn
// applies to the freshest version (§V-A), and put back before the root.
func (e *Enclave) updateSupernodeLocked(fn func() error) error {
	return e.commitLocked(func() error {
		if err := e.loadSupernodeLocked(); err != nil {
			return err
		}
		if err := fn(); err != nil {
			return err
		}
		return e.flushSupernodeLocked()
	})
}

// loadSupernodeLocked fetches, verifies and decodes the supernode.
func (e *Enclave) loadSupernodeLocked() error {
	blob, _, err := e.fetchObject(e.metrics.metaIO, SupernodeObjectName)
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
	e.noteSeenLocked(p.UUID, p.Version)
	return nil
}

// flushSupernodeLocked seals and uploads the supernode, bumping its
// version.
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
	if _, err := e.putObject(e.metrics.metaIO, SupernodeObjectName, blob); err != nil {
		return fmt.Errorf("uploading supernode: %w", err)
	}
	e.superBlob = blob
	e.noteSeenLocked(e.super.VolumeUUID, e.superVersion)
	e.metrics.metadataFlushes.Inc()
	e.metrics.metadataBytes.Add(int64(len(blob)))
	return e.recordFreshnessLocked(map[uuid.UUID]uint64{e.super.VolumeUUID: e.superVersion})
}
