// Package metadata defines NEXUS's cryptographically protected metadata
// objects — supernode, dirnode (with independently encrypted buckets),
// and filenode — and the three-section encrypted layout they share
// (DSN'19 §IV-A).
//
// Every object serializes to:
//
//  1. a plaintext, integrity-protected preamble (type, UUID, parent
//     UUID, version);
//  2. a cryptographic context: a fresh 128-bit body key wrapped with
//     AES-GCM-SIV under the volume rootkey, plus the body IV;
//  3. the body, encrypted with AES-128-GCM under the body key, with
//     sections (1) and (2) as additional authenticated data.
//
// A fresh body key and IV are generated on every update, so revocation
// only ever requires re-encrypting metadata, never file contents. The
// preamble's parent UUID defends against file-swapping attacks and the
// version counter against per-object rollback (§VI-C).
//
// This package is pure data + crypto: it never touches storage. Only the
// enclave (internal/enclave) holds a rootkey, so only the enclave can
// call Seal and Open.
package metadata

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"

	"nexus/internal/gcmsiv"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// ObjType discriminates metadata objects. Enums start at one so the zero
// value is invalid.
type ObjType uint8

// Object types.
const (
	TypeSupernode ObjType = iota + 1
	TypeDirnode
	TypeFilenode
	TypeDirBucket
	// TypeFreshness is the optional volume-wide version table (the
	// §VI-C hash-tree mitigation implemented in internal/enclave).
	TypeFreshness
	// 6 is retired (it tagged the content-defined ref table): do not reuse.
)

func (t ObjType) String() string {
	switch t {
	case TypeSupernode:
		return "supernode"
	case TypeDirnode:
		return "dirnode"
	case TypeFilenode:
		return "filenode"
	case TypeDirBucket:
		return "dirbucket"
	case TypeFreshness:
		return "freshness"
	default:
		return fmt.Sprintf("objtype(%d)", uint8(t))
	}
}

// Sizes of the fixed crypto fields.
const (
	// BodyKeySize is the per-object AES-128 key length ("a 128-bit
	// encryption key", §IV-A2).
	BodyKeySize = 16
	// RootKeySize is the volume rootkey length (AES-256 for the GCM-SIV
	// keywrap).
	RootKeySize = 32
	// ivSize and tagSize are the AES-GCM parameters.
	ivSize  = 12
	tagSize = 16

	// wrappedKeySize is the size of the GCM-SIV-wrapped body key:
	// nonce ‖ ciphertext ‖ tag.
	wrappedKeySize = gcmsiv.NonceSize + BodyKeySize + gcmsiv.TagSize

	// preambleSize is the fixed encoded preamble length:
	// magic(4) type(1) uuid(16) parent(16) version(8).
	preambleSize = 4 + 1 + 2*uuid.Size + 8

	// headerSize is everything before the body ciphertext.
	headerSize = preambleSize + wrappedKeySize + ivSize

	// magic tags the on-store format.
	magic = 0x4e585331 // "NXS1"
)

// Errors.
var (
	// ErrTampered reports that an object failed cryptographic
	// verification: wrong rootkey or modified bytes.
	ErrTampered = errors.New("metadata: object failed authentication")
	// ErrMalformed reports a structurally invalid object.
	ErrMalformed = errors.New("metadata: malformed object")
)

// Preamble is the plaintext, integrity-protected section of every object.
type Preamble struct {
	Type ObjType
	// UUID names the object on the backing store.
	UUID uuid.UUID
	// Parent is the UUID of the containing object (dirnode for entries,
	// volume supernode for the root directory), checked during traversal
	// to defeat file-swapping attacks. The supernode's parent is the nil
	// UUID.
	Parent uuid.UUID
	// Version is a monotonically increasing update counter used for
	// rollback detection.
	Version uint64
}

func (p Preamble) encode() []byte {
	w := serial.NewWriter(preambleSize)
	w.WriteUint32(magic)
	w.WriteUint8(uint8(p.Type))
	w.WriteRaw(p.UUID[:])
	w.WriteRaw(p.Parent[:])
	w.WriteUint64(p.Version)
	return w.Bytes()
}

func decodePreamble(b []byte) (Preamble, error) {
	var p Preamble
	r := serial.NewReader(b)
	if m := r.ReadUint32("magic"); m != magic {
		return p, fmt.Errorf("%w: bad magic %#x", ErrMalformed, m)
	}
	p.Type = ObjType(r.ReadUint8("obj type"))
	r.ReadRawInto(p.UUID[:], "uuid")
	r.ReadRawInto(p.Parent[:], "parent uuid")
	p.Version = r.ReadUint64("version")
	if err := r.Err(); err != nil {
		return p, err
	}
	if p.Type < TypeSupernode || p.Type > TypeFreshness {
		return p, fmt.Errorf("%w: unknown object type %d", ErrMalformed, p.Type)
	}
	return p, nil
}

// Seal encrypts body under a fresh key wrapped with rootKey and returns
// the full on-store blob. The returned blob's final 16 bytes are the
// body's GCM tag (see Tag), which dirnodes record for their buckets.
func Seal(rootKey []byte, p Preamble, body []byte) ([]byte, error) {
	if len(rootKey) != RootKeySize {
		return nil, fmt.Errorf("metadata: rootkey must be %d bytes, got %d", RootKeySize, len(rootKey))
	}

	// Fresh body key and IV on every update (§VI-A).
	bodyKey := make([]byte, BodyKeySize)
	if _, err := rand.Read(bodyKey); err != nil {
		return nil, fmt.Errorf("metadata: generating body key: %w", err)
	}
	iv := make([]byte, ivSize)
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("metadata: generating IV: %w", err)
	}

	preamble := p.encode()

	// Wrap the body key under the rootkey. The preamble is bound in as
	// AAD so a context cannot be transplanted onto another object or
	// version.
	wrapper, err := gcmsiv.New(rootKey)
	if err != nil {
		return nil, fmt.Errorf("metadata: keywrap cipher: %w", err)
	}
	wrapNonce := make([]byte, gcmsiv.NonceSize)
	if _, err := rand.Read(wrapNonce); err != nil {
		return nil, fmt.Errorf("metadata: generating wrap nonce: %w", err)
	}
	wrapped := wrapper.Seal(wrapNonce, wrapNonce, bodyKey, preamble)
	if len(wrapped) != wrappedKeySize {
		return nil, fmt.Errorf("metadata: internal error: wrapped key %d bytes", len(wrapped))
	}

	// Encrypt the body; preamble + crypto context are AAD, so tampering
	// with any section is detected.
	block, err := aes.NewCipher(bodyKey)
	if err != nil {
		return nil, fmt.Errorf("metadata: body cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("metadata: body GCM: %w", err)
	}

	blob := make([]byte, 0, headerSize+len(body)+tagSize)
	blob = append(blob, preamble...)
	blob = append(blob, wrapped...)
	blob = append(blob, iv...)
	aad := blob[:headerSize]
	blob = gcm.Seal(blob, iv, body, aad)
	return blob, nil
}

// Open verifies and decrypts a blob produced by Seal, returning its
// preamble and plaintext body. Any modification — of preamble, crypto
// context, or ciphertext — yields ErrTampered.
func Open(rootKey, blob []byte) (Preamble, []byte, error) {
	if len(rootKey) != RootKeySize {
		return Preamble{}, nil, fmt.Errorf("metadata: rootkey must be %d bytes, got %d", RootKeySize, len(rootKey))
	}
	if len(blob) < headerSize+tagSize {
		return Preamble{}, nil, fmt.Errorf("%w: %d bytes is below minimum %d",
			ErrMalformed, len(blob), headerSize+tagSize)
	}
	p, err := decodePreamble(blob[:preambleSize])
	if err != nil {
		return Preamble{}, nil, err
	}

	wrapped := blob[preambleSize : preambleSize+wrappedKeySize]
	iv := blob[preambleSize+wrappedKeySize : headerSize]

	wrapper, err := gcmsiv.New(rootKey)
	if err != nil {
		return Preamble{}, nil, fmt.Errorf("metadata: keywrap cipher: %w", err)
	}
	bodyKey, err := wrapper.Open(nil, wrapped[:gcmsiv.NonceSize],
		wrapped[gcmsiv.NonceSize:], blob[:preambleSize])
	if err != nil {
		return Preamble{}, nil, fmt.Errorf("%w: keywrap: unwrapping body key failed", ErrTampered)
	}

	block, err := aes.NewCipher(bodyKey)
	if err != nil {
		return Preamble{}, nil, fmt.Errorf("metadata: body cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return Preamble{}, nil, fmt.Errorf("metadata: body GCM: %w", err)
	}
	body, err := gcm.Open(nil, iv, blob[headerSize:], blob[:headerSize])
	if err != nil {
		return Preamble{}, nil, fmt.Errorf("%w: body authentication failed", ErrTampered)
	}
	return p, body, nil
}

// PeekPreamble decodes only the plaintext preamble without verifying the
// object. Callers must treat the result as unauthenticated until Open
// succeeds; it exists so the untrusted layer can route objects by type.
func PeekPreamble(blob []byte) (Preamble, error) {
	if len(blob) < preambleSize {
		return Preamble{}, fmt.Errorf("%w: %d bytes is below preamble size", ErrMalformed, len(blob))
	}
	return decodePreamble(blob[:preambleSize])
}

// Tag returns the blob's trailing GCM tag. Dirnodes store their buckets'
// tags in the main object to prevent bucket-level rollback (§V-B): a
// stale bucket re-served by the storage provider will carry a tag that no
// longer matches the main dirnode's record.
func Tag(blob []byte) ([tagSize]byte, error) {
	var t [tagSize]byte
	if len(blob) < headerSize+tagSize {
		return t, fmt.Errorf("%w: blob too short for tag", ErrMalformed)
	}
	copy(t[:], blob[len(blob)-tagSize:])
	return t, nil
}

// NewRootKey generates a fresh volume rootkey. In production this runs
// inside the enclave at volume creation (§VI-B).
func NewRootKey() ([]byte, error) {
	k := make([]byte, RootKeySize)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("metadata: generating rootkey: %w", err)
	}
	return k, nil
}
