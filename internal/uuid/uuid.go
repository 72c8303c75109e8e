// Package uuid provides the 16-byte universally unique identifiers that
// NEXUS uses to obfuscate object names on the untrusted storage service.
//
// Every metadata and data object in a NEXUS volume is stored under the hex
// encoding of a UUID rather than its human-readable name; the mapping from
// names to UUIDs lives only inside encrypted dirnodes (DSN'19 §IV-A1).
package uuid

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// Size is the length of a UUID in bytes.
const Size = 16

// ErrMalformed reports that a string or byte slice could not be parsed as
// a UUID.
var ErrMalformed = errors.New("uuid: malformed identifier")

// UUID is a 16-byte random identifier. The zero value is the nil UUID,
// which is never assigned to a real object and can be used as a sentinel.
type UUID [Size]byte

// Nil is the zero UUID.
var Nil UUID

// New returns a fresh random UUID drawn from crypto/rand.
//
// In the paper UUIDs are generated inside the enclave at metadata creation
// time; callers in the trusted code path should use Enclave-scoped
// generation so randomness is attributable to the TCB, but the output
// distribution is identical.
func New() UUID {
	var u UUID
	if _, err := rand.Read(u[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it does the
		// process cannot safely continue generating object names.
		panic(fmt.Sprintf("uuid: system entropy unavailable: %v", err))
	}
	return u
}

// NewFrom returns a UUID read from r, for deterministic generation in
// tests and simulations.
func NewFrom(r io.Reader) (UUID, error) {
	var u UUID
	if _, err := io.ReadFull(r, u[:]); err != nil {
		return Nil, fmt.Errorf("uuid: short read from source: %w", err)
	}
	return u, nil
}

// FromBytes parses a UUID from a 16-byte slice.
func FromBytes(b []byte) (UUID, error) {
	var u UUID
	if len(b) != Size {
		return Nil, fmt.Errorf("%w: want %d bytes, got %d", ErrMalformed, Size, len(b))
	}
	copy(u[:], b)
	return u, nil
}

// Parse parses the 32-character hex form produced by String.
func Parse(s string) (UUID, error) {
	var u UUID
	if len(s) != 2*Size {
		return Nil, fmt.Errorf("%w: want %d hex chars, got %d", ErrMalformed, 2*Size, len(s))
	}
	if _, err := hex.Decode(u[:], []byte(s)); err != nil {
		return Nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return u, nil
}

// String returns the lower-case hex encoding, which doubles as the
// obfuscated object name on the backing store. The enclave names an
// object once per store call, so the text is encoded on the stack and
// copied into the string: one allocation where hex.EncodeToString makes
// two.
func (u UUID) String() string {
	var text [2 * Size]byte
	hex.Encode(text[:], u[:])
	return string(text[:])
}

// IsNil reports whether u is the zero UUID.
func (u UUID) IsNil() bool { return u == Nil }

// Bytes returns a copy of the UUID's bytes.
func (u UUID) Bytes() []byte {
	b := make([]byte, Size)
	copy(b, u[:])
	return b
}
