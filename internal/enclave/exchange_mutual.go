package enclave

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"

	"nexus/internal/serial"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// The synchronous, mutually attested exchange variant (§VI-B).
//
// The asynchronous protocol of Fig. 4 keeps the recipient enclave's
// long-term ECDH keypair fixed, so it lacks perfect forward secrecy: an
// attacker who ever extracts that private key can decrypt every grant
// recorded off the wire. The paper proposes a synchronous alternative in
// which "both parties generate ephemeral ECDH keys on every exchange and
// mutually attest their enclaves", trading an extra protocol round for
// PFS. This file implements that variant:
//
//	recipient: BeginMutualExchange  → fresh ephemeral key, attested (m1')
//	owner:     GrantAccessMutual    → verifies m1', fresh ephemeral key,
//	                                  attested, rootkey under
//	                                  ECDH(eph_o, eph_r)        (m2')
//	recipient: AcceptMutualGrant    → verifies the owner's enclave too,
//	                                  derives the secret, then discards
//	                                  its ephemeral key.
//
// Both ephemeral private keys die with the exchange, so recorded
// messages are undecryptable afterwards even if every long-term key
// leaks.

// MutualGrant is m2' of the synchronous exchange.
type MutualGrant struct {
	VolumeUUID uuid.UUID
	// OwnerEphemeralKey is the owner enclave's fresh ECDH public key,
	// bound to the owner's enclave by OwnerQuote.
	OwnerEphemeralKey []byte
	OwnerQuote        *sgx.Quote
	Nonce             []byte
	Ciphertext        []byte
	OwnerSig          []byte
}

func (g *MutualGrant) signedPortion() []byte {
	quote := g.OwnerQuote.Encode()
	w := serial.NewWriter(128 + len(g.OwnerEphemeralKey) + len(quote) + len(g.Ciphertext))
	w.WriteRaw(g.VolumeUUID[:])
	w.WriteBytes(g.OwnerEphemeralKey)
	w.WriteBytes(quote)
	w.WriteBytes(g.Nonce)
	w.WriteBytes(g.Ciphertext)
	return w.Bytes()
}

// Encode serializes the grant.
func (g *MutualGrant) Encode() []byte {
	body := g.signedPortion()
	w := serial.NewWriter(len(body) + len(g.OwnerSig) + 8)
	w.WriteBytes(body)
	w.WriteBytes(g.OwnerSig)
	return w.Bytes()
}

// DecodeMutualGrant parses a grant produced by Encode.
func DecodeMutualGrant(b []byte) (*MutualGrant, error) {
	r := serial.NewReader(b)
	body := r.ReadBytes(8192, "mutual grant body")
	sig := r.ReadBytes(256, "mutual grant signature")
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExchangeInvalid, err)
	}
	br := serial.NewReader(body)
	g := &MutualGrant{OwnerSig: sig}
	br.ReadRawInto(g.VolumeUUID[:], "mutual grant volume uuid")
	g.OwnerEphemeralKey = br.ReadBytes(256, "mutual grant ephemeral key")
	quoteBytes := br.ReadBytes(2048, "mutual grant owner quote")
	g.Nonce = br.ReadBytes(64, "mutual grant nonce")
	g.Ciphertext = br.ReadBytes(256, "mutual grant ciphertext")
	if err := br.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExchangeInvalid, err)
	}
	q, err := sgx.DecodeQuote(quoteBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExchangeInvalid, err)
	}
	g.OwnerQuote = q
	return g, nil
}

// BeginMutualExchange starts the synchronous exchange on the recipient:
// it generates a fresh ephemeral ECDH keypair (kept only in enclave
// state until AcceptMutualGrant consumes it), quotes it, and returns the
// signed offer.
func (e *Enclave) BeginMutualExchange(userName string, sign Signer) ([]byte, error) {
	var out []byte
	err := e.ecall(noAuth, func() error {
		eph, err := ecdh.P256().GenerateKey(rand.Reader)
		if err != nil {
			return fmt.Errorf("generating ephemeral key: %w", err)
		}
		pub := eph.PublicKey().Bytes()
		quote, err := e.sgx.Quote(keyDigest(pub))
		if err != nil {
			return fmt.Errorf("quoting ephemeral key: %w", err)
		}
		sig, err := sign(quote.Encode())
		if err != nil {
			return fmt.Errorf("signing mutual offer: %w", err)
		}
		e.pendingMutual = eph
		out = (&Offer{
			UserName:   userName,
			EnclaveKey: pub,
			Quote:      quote,
			UserSig:    sig,
		}).Encode()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GrantAccessMutual is the owner side of the synchronous exchange: the
// recipient's ephemeral offer is admitted exactly as in GrantAccess, the
// owner generates and *attests* its own ephemeral key, and the rootkey
// travels under the ephemeral-ephemeral ECDH secret. Both parties are
// mutually attested; neither ephemeral key survives the exchange.
func (e *Enclave) GrantAccessMutual(offerBytes []byte, userName string, userKey ed25519.PublicKey, sign Signer) ([]byte, error) {
	var out []byte
	err := e.ecall(needAuth, func() error {
		remoteKey, err := e.admitOfferLocked(offerBytes, userName, userKey)
		if err != nil {
			return err
		}
		eph, err := ecdh.P256().GenerateKey(rand.Reader)
		if err != nil {
			return fmt.Errorf("generating ephemeral key: %w", err)
		}
		ephPub := eph.PublicKey().Bytes()
		ownerQuote, err := e.sgx.Quote(keyDigest(ephPub))
		if err != nil {
			return fmt.Errorf("quoting ephemeral key: %w", err)
		}
		nonce, ciphertext, err := e.wrapRootKeyLocked(eph, remoteKey)
		if err != nil {
			return err
		}
		g := &MutualGrant{
			VolumeUUID:        e.super.VolumeUUID,
			OwnerEphemeralKey: ephPub,
			OwnerQuote:        ownerQuote,
			Nonce:             nonce,
			Ciphertext:        ciphertext,
		}
		if g.OwnerSig, err = sign(g.signedPortion()); err != nil {
			return fmt.Errorf("signing mutual grant: %w", err)
		}
		out = g.Encode()
		// The owner's ephemeral private key dies here: eph goes out of
		// scope with nothing persisted.
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AcceptMutualGrant completes the synchronous exchange: it verifies the
// owner's signature *and* the owner enclave's attestation, derives the
// ephemeral-ephemeral secret, recovers and seals the rootkey, and
// discards the local ephemeral key (forward secrecy).
func (e *Enclave) AcceptMutualGrant(grantBytes []byte, ownerKey ed25519.PublicKey) (sealedRootKey []byte, volumeID uuid.UUID, err error) {
	err = e.ecall(noAuth, func() error {
		if e.pendingMutual == nil {
			return fmt.Errorf("%w: no mutual exchange in progress (ephemeral key already consumed?)", ErrExchangeInvalid)
		}
		g, err := DecodeMutualGrant(grantBytes)
		if err != nil {
			return err
		}
		if !verifySignature(ownerKey, g.signedPortion(), g.OwnerSig) {
			return fmt.Errorf("%w: grant not signed by the volume owner", ErrExchangeInvalid)
		}
		// Mutual attestation: the *owner's* enclave must also be a
		// genuine NEXUS enclave, and its quote must bind the ephemeral
		// key in the grant.
		ownerEph, err := e.verifyAttestedKeyLocked(g.OwnerQuote, g.OwnerEphemeralKey)
		if err != nil {
			return err
		}
		eph := e.pendingMutual
		e.pendingMutual = nil // consume: forward secrecy
		sealedRootKey, err = e.unwrapRootKey(eph, ownerEph, g.Nonce, g.Ciphertext, g.VolumeUUID)
		volumeID = g.VolumeUUID
		return err
	})
	if err != nil {
		return nil, uuid.Nil, err
	}
	return sealedRootKey, volumeID, nil
}
