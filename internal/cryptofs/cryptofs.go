// Package cryptofs is a purely cryptographic protected filesystem in the
// style of SiRiUS/Plutus — the class of systems NEXUS's revocation
// experiment compares against (DSN'19 §VII-E, and the Garrison et al.
// analysis cited in §I).
//
// Each file is encrypted under its own file key, and the file key is
// wrapped individually for every authorized user under a pairwise ECDH
// secret. Because decryption happens in untrusted client software, a
// revoked user must be assumed to have cached every file key they could
// read. Revocation therefore requires, for every affected file:
//
//  1. generating a fresh file key,
//  2. re-encrypting the entire file contents,
//  3. re-wrapping the new key for every remaining user, and
//  4. uploading the new ciphertext and key block.
//
// The package meters exactly those costs so the benchmark can report
// them against NEXUS's single-metadata-update revocation.
package cryptofs

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"nexus/internal/backend"
	"nexus/internal/obs"
	"nexus/internal/parallel"
	"nexus/internal/serial"
)

// Errors.
var (
	// ErrNoAccess reports a user without a wrapped key for the file.
	ErrNoAccess = errors.New("cryptofs: user has no key for this file")
	// ErrNotFound reports a missing file.
	ErrNotFound = errors.New("cryptofs: file not found")
	// ErrUnknownUser reports an unregistered username.
	ErrUnknownUser = errors.New("cryptofs: unknown user")
)

// User is a participant with an ECDH keypair. In a deployed system the
// private key lives with the user; the test harness holds both halves.
type User struct {
	Name string
	priv *ecdh.PrivateKey
}

// PublicKey returns the user's ECDH public key bytes.
func (u *User) PublicKey() []byte { return u.priv.PublicKey().Bytes() }

// NewUser generates a user identity.
func NewUser(name string) (*User, error) {
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("cryptofs: generating user key: %w", err)
	}
	return &User{Name: name, priv: priv}, nil
}

// Stats meters the costs the revocation experiment reports. Values
// returned by Revoke/Stats are snapshots; cumulative accounting lives
// in the obs registry (see cfsMetrics).
type Stats struct {
	// BytesReencrypted counts plaintext bytes passed through AES on
	// re-encryption.
	BytesReencrypted int64
	// BytesUploaded counts bytes written to the store.
	BytesUploaded int64
	// FilesTouched counts files whose contents were rewritten.
	FilesTouched int64
	// KeyWraps counts per-user key wrap operations.
	KeyWraps int64
}

// add accumulates another snapshot into s.
func (s *Stats) add(o Stats) {
	s.BytesReencrypted += o.BytesReencrypted
	s.BytesUploaded += o.BytesUploaded
	s.FilesTouched += o.FilesTouched
	s.KeyWraps += o.KeyWraps
}

// FS is a pure-crypto filesystem over a store.
type FS struct {
	store backend.Store
	owner *User

	mu    sync.Mutex
	users map[string]*User // all participants, owner included; guarded by mu

	metrics cfsMetrics
}

// cfsMetrics holds the filesystem's obs instrument handles. The
// legacy Stats/ResetStats accessors are shims over these counters;
// metric names are catalogued in DESIGN.md §11.
type cfsMetrics struct {
	reg              *obs.Registry
	bytesReencrypted *obs.Counter // cryptofs_bytes_reencrypted_total
	bytesUploaded    *obs.Counter // cryptofs_bytes_uploaded_total
	filesTouched     *obs.Counter // cryptofs_files_touched_total
	keyWraps         *obs.Counter // cryptofs_key_wraps_total
	revokeLat        *obs.Histogram
	tracer           *obs.Tracer
}

func (m *cfsMetrics) bind(reg *obs.Registry) {
	m.reg = reg
	m.bytesReencrypted = reg.Counter("cryptofs_bytes_reencrypted_total")
	m.bytesUploaded = reg.Counter("cryptofs_bytes_uploaded_total")
	m.filesTouched = reg.Counter("cryptofs_files_touched_total")
	m.keyWraps = reg.Counter("cryptofs_key_wraps_total")
	m.revokeLat = reg.Histogram("cryptofs_revoke_seconds")
	m.tracer = reg.Tracer()
}

// add folds a per-call Stats snapshot into the cumulative counters.
func (m *cfsMetrics) add(st Stats) {
	m.bytesReencrypted.Add(st.BytesReencrypted)
	m.bytesUploaded.Add(st.BytesUploaded)
	m.filesTouched.Add(st.FilesTouched)
	m.keyWraps.Add(st.KeyWraps)
}

// New creates a filesystem owned by owner.
func New(store backend.Store, owner *User) *FS {
	fs := &FS{
		store: store,
		owner: owner,
		users: map[string]*User{owner.Name: owner},
	}
	fs.metrics.bind(obs.NewRegistry())
	return fs
}

// SetObs rebinds the meters onto reg so the filesystem shares a
// registry with the rest of a benchmark or test stack. Call before
// use; rebinding mid-flight loses in-window counts.
func (fs *FS) SetObs(reg *obs.Registry) { fs.metrics.bind(reg) }

// AddUser registers a participant.
func (fs *FS) AddUser(u *User) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.users[u.Name] = u
}

// Stats returns a snapshot of the meters, assembled from the registry
// counters.
func (fs *FS) Stats() Stats {
	m := &fs.metrics
	return Stats{
		BytesReencrypted: m.bytesReencrypted.Value(),
		BytesUploaded:    m.bytesUploaded.Value(),
		FilesTouched:     m.filesTouched.Value(),
		KeyWraps:         m.keyWraps.Value(),
	}
}

// ResetStats zeroes the meters.
func (fs *FS) ResetStats() {
	m := &fs.metrics
	m.bytesReencrypted.Reset()
	m.bytesUploaded.Reset()
	m.filesTouched.Reset()
	m.keyWraps.Reset()
	m.revokeLat.Reset()
}

// object names: file data under "data!<path>", key block under
// "keys!<path>" (path separators escaped).
func dataName(p string) string { return "data!" + escape(p) }
func keysName(p string) string { return "keys!" + escape(p) }

func escape(p string) string {
	p = strings.TrimPrefix(p, "/")
	p = strings.ReplaceAll(p, "%", "%25")
	return strings.ReplaceAll(p, "/", "%2f")
}

// wrapKey derives the pairwise wrapping secret between the owner and a
// user, and seals the file key under it.
func wrapKey(owner, user *User, fileKey []byte) ([]byte, error) {
	secret, err := owner.priv.ECDH(user.priv.PublicKey())
	if err != nil {
		return nil, fmt.Errorf("cryptofs: deriving wrap secret: %w", err)
	}
	kek := sha256.Sum256(secret)
	block, err := aes.NewCipher(kek[:])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, 12)
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return gcm.Seal(nonce, nonce, fileKey, []byte(user.Name)), nil
}

// unwrapKeyFor recovers the file key wrapped for user under the
// owner/user pairwise secret.
func unwrapKeyFor(owner, user *User, wrapped []byte) ([]byte, error) {
	secret, err := user.priv.ECDH(owner.priv.PublicKey())
	if err != nil {
		return nil, err
	}
	kek := sha256.Sum256(secret)
	block, err := aes.NewCipher(kek[:])
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(wrapped) < 12 {
		return nil, ErrNoAccess
	}
	key, err := gcm.Open(nil, wrapped[:12], wrapped[12:], []byte(user.Name))
	if err != nil {
		return nil, fmt.Errorf("%w: unwrap failed", ErrNoAccess)
	}
	return key, nil
}

// encryptAndStore is the lock-free core of the write path: everything it
// touches arrives as an argument, so Revoke can fan it out across worker
// goroutines (the caller holds fs.mu for the whole fan-out, keeping
// users and owner frozen). The returned Stats meter this call only.
func encryptAndStore(store backend.Store, owner *User, users map[string]*User, p string, data []byte, readers []string) (Stats, error) {
	var st Stats
	fileKey := make([]byte, 32)
	if _, err := rand.Read(fileKey); err != nil {
		return st, err
	}
	block, err := aes.NewCipher(fileKey)
	if err != nil {
		return st, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return st, err
	}
	// The sealed blob is nonce ‖ ciphertext ‖ tag. Unlike the enclave's
	// chunked pipeline this seal cannot stream: the whole file is ONE GCM
	// message, so no prefix of the ciphertext is final until Seal
	// returns with the tag over the entire stream — there is no chunk
	// boundary at which bytes could be scattered to the store early.
	nonce := make([]byte, 12, 12+len(data)+gcm.Overhead())
	if _, err := rand.Read(nonce); err != nil {
		return st, err
	}
	ct := gcm.Seal(nonce, nonce, data, nil)
	st.BytesReencrypted += int64(len(data))

	// Key block: per-reader wrapped keys.
	sort.Strings(readers)
	w := serial.NewWriter(64 * len(readers))
	w.WriteUint32(uint32(len(readers)))
	for _, name := range readers {
		user, ok := users[name]
		if !ok {
			return st, fmt.Errorf("%w: %s", ErrUnknownUser, name)
		}
		wrapped, err := wrapKey(owner, user, fileKey)
		if err != nil {
			return st, err
		}
		st.KeyWraps++
		w.WriteString(name)
		w.WriteBytes(wrapped)
	}

	// Fail-closed ordering on an unreliable store: the ciphertext goes up
	// before the key block. If the key-block write dies (unavailable or
	// interrupted with unknown outcome), readers hold the OLD key block,
	// which cannot decrypt the new ciphertext — the file reads as
	// corrupt, never as a silent mix of old keys and new plaintext. The
	// reverse order could expose a new reader set to content they were
	// just revoked from.
	if err := store.Put(dataName(p), ct); err != nil {
		if backend.IsUnavailable(err) {
			return st, fmt.Errorf("cryptofs: uploading ciphertext for %s: %w", p, err)
		}
		return st, err
	}
	if err := store.Put(keysName(p), w.Bytes()); err != nil {
		if backend.IsUnavailable(err) {
			return st, fmt.Errorf("cryptofs: uploading key block for %s (ciphertext already replaced; old keys cannot decrypt it): %w", p, err)
		}
		return st, err
	}
	st.BytesUploaded += int64(len(ct) + w.Len())
	st.FilesTouched++
	return st, nil
}

// WriteFile encrypts and stores a file readable by the given users (the
// owner is always included).
func (fs *FS) WriteFile(p string, data []byte, readers []string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	withOwner := append([]string{fs.owner.Name}, readers...)
	seen := make(map[string]bool, len(withOwner))
	var unique []string
	for _, r := range withOwner {
		if !seen[r] {
			seen[r] = true
			unique = append(unique, r)
		}
	}
	st, err := encryptAndStore(fs.store, fs.owner, fs.users, p, data, unique)
	fs.metrics.add(st)
	return err
}

// ReadFile decrypts a file as the given user.
func (fs *FS) ReadFile(p string, user *User) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return readFileAs(fs.store, fs.owner, user, p)
}

// readFileAs is the lock-free read core shared by ReadFile and Revoke's
// parallel fan-out (which reads as the owner): find user's wrap in the
// key block, unwrap the file key, decrypt the contents.
func readFileAs(store backend.Store, owner, user *User, p string) ([]byte, error) {
	keysBlob, err := store.Get(keysName(p))
	if errors.Is(err, backend.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	if err != nil {
		return nil, err
	}
	readers, wrapped, err := decodeKeyBlock(keysBlob)
	if err != nil {
		return nil, err
	}
	for i, name := range readers {
		if name == user.Name {
			fileKey, err := unwrapKeyFor(owner, user, wrapped[i])
			if err != nil {
				return nil, err
			}
			return openData(store, p, fileKey)
		}
	}
	return nil, fmt.Errorf("%w: %s on %s", ErrNoAccess, user.Name, p)
}

// openData fetches and decrypts a file's ciphertext under its file key.
func openData(store backend.Store, p string, fileKey []byte) ([]byte, error) {
	ct, err := store.Get(dataName(p))
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(fileKey)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(ct) < 12 {
		return nil, fmt.Errorf("cryptofs: truncated ciphertext")
	}
	pt, err := gcm.Open(nil, ct[:12], ct[12:], nil)
	if err != nil {
		return nil, fmt.Errorf("cryptofs: decryption failed: %w", err)
	}
	return pt, nil
}

func decodeKeyBlock(blob []byte) (readers []string, wrapped [][]byte, err error) {
	r := serial.NewReader(blob)
	n := r.ReadCount(0, "reader count")
	for i := 0; i < n; i++ {
		readers = append(readers, r.ReadString(0, "reader name"))
		wrapped = append(wrapped, r.ReadBytes(256, "wrapped key"))
	}
	if err := r.Finish(); err != nil {
		return nil, nil, err
	}
	return readers, wrapped, nil
}

// Readers lists the users who hold a wrapped key for p.
func (fs *FS) Readers(p string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	keysBlob, err := fs.store.Get(keysName(p))
	if errors.Is(err, backend.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	if err != nil {
		return nil, err
	}
	readers, _, err := decodeKeyBlock(keysBlob)
	return readers, err
}

// Revoke removes a user's access to every file in paths. This is the
// operation whose cost the experiment measures: each file's contents are
// re-encrypted under a fresh key and re-uploaded, and keys re-wrapped
// for all remaining readers — cost proportional to total affected data
// and sharing degree. Files are independent, so the re-encryption fans
// out across GOMAXPROCS workers; fs.mu is held for the whole operation,
// freezing the user table under the workers.
func (fs *FS) Revoke(revoked string, paths []string) (Stats, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	span := fs.metrics.tracer.Begin("cryptofs.revoke")
	span.SetTagInt("paths", int64(len(paths)))
	start := time.Now()
	defer func() {
		fs.metrics.revokeLat.Record(time.Since(start))
		span.End()
	}()
	perPath := make([]Stats, len(paths))
	var total Stats
	err := parallel.Ranges(len(paths), 0, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			p := paths[i]
			keysBlob, err := fs.store.Get(keysName(p))
			if errors.Is(err, backend.ErrNotExist) {
				return fmt.Errorf("%w: %s", ErrNotFound, p)
			}
			if err != nil {
				return err
			}
			readers, _, err := decodeKeyBlock(keysBlob)
			if err != nil {
				return err
			}
			hadAccess := false
			remaining := readers[:0]
			for _, name := range readers {
				if name == revoked {
					hadAccess = true
					continue
				}
				remaining = append(remaining, name)
			}
			if !hadAccess {
				continue // nothing cached by the revoked user
			}
			// The revoked user may have cached the old file key: full
			// re-encryption under a fresh key is mandatory.
			pt, err := readFileAs(fs.store, fs.owner, fs.owner, p)
			if err != nil {
				return err
			}
			st, err := encryptAndStore(fs.store, fs.owner, fs.users, p, pt, remaining)
			if err != nil {
				return err
			}
			perPath[i] = st
		}
		return nil
	})
	// Fold whatever completed into the meters even on failure, matching
	// the serial path's partial accounting.
	for _, st := range perPath {
		total.add(st)
	}
	fs.metrics.add(total)
	if err != nil {
		return Stats{}, err
	}
	return total, nil
}
