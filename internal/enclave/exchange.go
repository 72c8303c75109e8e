package enclave

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"

	"nexus/internal/metadata"
	"nexus/internal/serial"
	"nexus/internal/sgx"
	"nexus/internal/uuid"
)

// The rootkey exchange protocol of DSN'19 §IV-B1 (Fig. 4): an
// asynchronous, in-band ECDH exchange in which the recipient's enclave is
// remotely attested before the volume rootkey is released to it.
//
//	Setup:      recipient's enclave publishes m1 = SIGN(sk_user, Q) ‖ pk_e,
//	            where Q = QUOTE(pk_e) binds the enclave ECDH public key to
//	            a genuine NEXUS enclave.
//	Exchange:   the owner verifies the quote (via the attestation
//	            service), derives k = ECDH(sk_eph, pk_e), and publishes
//	            m2 = SIGN(sk_owner, ENC(k, rootkey)) ‖ pk_eph.
//	Extraction: the recipient derives k' = ECDH(sk_e, pk_eph) inside the
//	            enclave and recovers the rootkey, which it immediately
//	            seals to local disk.
//
// Both messages are plain objects on the shared storage service, so
// neither party needs to be online simultaneously.

// Exchange errors.
var (
	// ErrExchangeInvalid reports a malformed or unverifiable exchange
	// message.
	ErrExchangeInvalid = errors.New("enclave: exchange message failed verification")
	// ErrNoAttestation reports an exchange attempted without an
	// attestation service configured.
	ErrNoAttestation = errors.New("enclave: no attestation service configured")
)

// Signer produces the user's identity signature over a message. The
// user's private key lives outside the enclave (it is the same key used
// for volume authentication), so signing is a callback to the caller.
type Signer func(message []byte) ([]byte, error)

// exchangeKey is the enclave's long-term ECDH keypair (Fig. 4 "Setup").
// The private key never leaves enclave state.
type exchangeKey struct {
	priv *ecdh.PrivateKey
}

func newExchangeKey() (*exchangeKey, error) {
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generating ECDH keypair: %w", err)
	}
	return &exchangeKey{priv: priv}, nil
}

// Offer is m1: the recipient enclave's attested ECDH public key, signed
// by the requesting user's identity key.
type Offer struct {
	// UserName is the requesting user's name (informational; the binding
	// identity is UserSig's key).
	UserName string
	// EnclaveKey is the recipient enclave's ECDH public key (P-256,
	// uncompressed point).
	EnclaveKey []byte
	// Quote binds SHA-256(EnclaveKey) to a genuine enclave.
	Quote *sgx.Quote
	// UserSig is the user's Ed25519 signature over the encoded quote.
	UserSig []byte
}

// Encode serializes the offer for in-band transport.
func (o *Offer) Encode() []byte {
	quoteBytes := o.Quote.Encode()
	w := serial.NewWriter(128 + len(quoteBytes) + len(o.EnclaveKey) + len(o.UserSig))
	w.WriteString(o.UserName)
	w.WriteBytes(o.EnclaveKey)
	w.WriteBytes(quoteBytes)
	w.WriteBytes(o.UserSig)
	return w.Bytes()
}

// DecodeOffer parses an offer.
func DecodeOffer(b []byte) (*Offer, error) {
	r := serial.NewReader(b)
	o := &Offer{}
	o.UserName = r.ReadString(256, "offer user name")
	o.EnclaveKey = r.ReadBytes(256, "offer enclave key")
	quoteBytes := r.ReadBytes(2048, "offer quote")
	o.UserSig = r.ReadBytes(256, "offer user signature")
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExchangeInvalid, err)
	}
	q, err := sgx.DecodeQuote(quoteBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExchangeInvalid, err)
	}
	o.Quote = q
	return o, nil
}

// Grant is m2: the rootkey encrypted to the recipient's enclave key,
// signed by the volume owner.
type Grant struct {
	// VolumeUUID identifies the shared volume (used as sealing AAD by
	// the recipient).
	VolumeUUID uuid.UUID
	// EphemeralKey is the owner's ephemeral ECDH public key; its private
	// half was discarded after the exchange.
	EphemeralKey []byte
	// Nonce and Ciphertext carry AES-256-GCM(k, rootkey).
	Nonce      []byte
	Ciphertext []byte
	// OwnerSig is the owner's Ed25519 signature over the fields above.
	OwnerSig []byte
}

func (g *Grant) signedPortion() []byte {
	w := serial.NewWriter(128 + len(g.EphemeralKey) + len(g.Ciphertext))
	w.WriteRaw(g.VolumeUUID[:])
	w.WriteBytes(g.EphemeralKey)
	w.WriteBytes(g.Nonce)
	w.WriteBytes(g.Ciphertext)
	return w.Bytes()
}

// Encode serializes the grant for in-band transport.
func (g *Grant) Encode() []byte {
	body := g.signedPortion()
	w := serial.NewWriter(len(body) + len(g.OwnerSig) + 8)
	w.WriteBytes(body)
	w.WriteBytes(g.OwnerSig)
	return w.Bytes()
}

// DecodeGrant parses a grant.
func DecodeGrant(b []byte) (*Grant, error) {
	r := serial.NewReader(b)
	body := r.ReadBytes(4096, "grant body")
	sig := r.ReadBytes(256, "grant owner signature")
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExchangeInvalid, err)
	}
	br := serial.NewReader(body)
	g := &Grant{OwnerSig: sig}
	br.ReadRawInto(g.VolumeUUID[:], "grant volume uuid")
	g.EphemeralKey = br.ReadBytes(256, "grant ephemeral key")
	g.Nonce = br.ReadBytes(64, "grant nonce")
	g.Ciphertext = br.ReadBytes(256, "grant ciphertext")
	if err := br.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrExchangeInvalid, err)
	}
	return g, nil
}

// exchangeKeySealLabel is the AAD binding sealed exchange keys.
var exchangeKeySealLabel = []byte("nexus-exchange-key")

// SealedExchangeKey exports the enclave's long-term exchange private key
// in SGX-sealed form for local persistence, as the paper prescribes
// ("encrypted with the enclave sealing key before being stored
// persistently", §IV-B1). Only an enclave with the same measurement on
// the same platform can restore it.
func (e *Enclave) SealedExchangeKey() ([]byte, error) {
	var out []byte
	err := e.ecall(noAuth, func() (err error) {
		out, err = e.sgx.Seal(e.exchange.priv.Bytes(), exchangeKeySealLabel)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sealing exchange key: %w", err)
	}
	return out, nil
}

// RestoreExchangeKey replaces the enclave's exchange keypair with one
// previously exported by SealedExchangeKey, so offers published before a
// restart remain redeemable.
func (e *Enclave) RestoreExchangeKey(sealed []byte) error {
	return e.ecall(noAuth, func() error {
		raw, err := e.sgx.Unseal(sealed, exchangeKeySealLabel)
		if err != nil {
			return fmt.Errorf("unsealing exchange key: %w", err)
		}
		priv, err := ecdh.P256().NewPrivateKey(raw)
		if err != nil {
			return fmt.Errorf("restoring exchange key: %w", err)
		}
		e.exchange = &exchangeKey{priv: priv}
		return nil
	})
}

// CreateExchangeOffer produces m1 for this enclave: a quote over the
// enclave's ECDH public key, signed by the requesting user's identity
// key. The caller publishes the returned bytes on the shared store.
func (e *Enclave) CreateExchangeOffer(userName string, sign Signer) ([]byte, error) {
	var out []byte
	err := e.ecall(noAuth, func() error {
		pub := e.exchange.priv.PublicKey().Bytes()
		quote, err := e.sgx.Quote(keyDigest(pub))
		if err != nil {
			return fmt.Errorf("quoting exchange key: %w", err)
		}
		sig, err := sign(quote.Encode())
		if err != nil {
			return fmt.Errorf("signing offer: %w", err)
		}
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

// GrantAccess is the owner-side "Exchange" phase: it admits the offer's
// user (admitOfferLocked), encrypts the rootkey to the offered enclave
// key under an ephemeral ECDH secret, and returns the signed grant (m2)
// for the caller to publish. Only the authenticated owner may grant.
func (e *Enclave) GrantAccess(offerBytes []byte, userName string, userKey ed25519.PublicKey, sign Signer) ([]byte, error) {
	var out []byte
	err := e.ecall(needAuth, func() error {
		remoteKey, err := e.admitOfferLocked(offerBytes, userName, userKey)
		if err != nil {
			return err
		}
		// Ephemeral ECDH: the private half is dropped on return.
		eph, err := ecdh.P256().GenerateKey(rand.Reader)
		if err != nil {
			return fmt.Errorf("generating ephemeral key: %w", err)
		}
		nonce, ciphertext, err := e.wrapRootKeyLocked(eph, remoteKey)
		if err != nil {
			return err
		}
		g := &Grant{
			VolumeUUID:   e.super.VolumeUUID,
			EphemeralKey: eph.PublicKey().Bytes(),
			Nonce:        nonce,
			Ciphertext:   ciphertext,
		}
		if g.OwnerSig, err = sign(g.signedPortion()); err != nil {
			return fmt.Errorf("signing grant: %w", err)
		}
		out = g.Encode()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AcceptGrant is the recipient-side "Extraction" phase: it verifies the
// owner's signature, derives the ECDH secret with the enclave's private
// key, recovers the rootkey, and returns it SGX-sealed for local
// persistence along with the volume UUID to mount with.
func (e *Enclave) AcceptGrant(grantBytes []byte, ownerKey ed25519.PublicKey) (sealedRootKey []byte, volumeID uuid.UUID, err error) {
	err = e.ecall(noAuth, func() error {
		g, err := DecodeGrant(grantBytes)
		if err != nil {
			return err
		}
		if !verifySignature(ownerKey, g.signedPortion(), g.OwnerSig) {
			return fmt.Errorf("%w: grant not signed by the volume owner", ErrExchangeInvalid)
		}
		ephKey, err := ecdh.P256().NewPublicKey(g.EphemeralKey)
		if err != nil {
			return fmt.Errorf("%w: bad ephemeral key: %v", ErrExchangeInvalid, err)
		}
		sealedRootKey, err = e.unwrapRootKey(e.exchange.priv, ephKey, g.Nonce, g.Ciphertext, g.VolumeUUID)
		volumeID = g.VolumeUUID
		return err
	})
	if err != nil {
		return nil, uuid.Nil, err
	}
	return sealedRootKey, volumeID, nil
}

// admitOfferLocked is the owner's half of both exchanges up to the
// rootkey release. Only the authenticated owner may grant. It checks that
// the offer is signed by the identity being granted to and that its quote
// attests a NEXUS enclave binding the offered ECDH key, then admits the
// user: one supernode update (§VII-F) that adds the user to the member
// list as AddUser does (DESIGN.md §13.3). The update is one commit with
// the drain, because sharing hands another enclave a view of the volume
// and that view must be complete. A key the table already holds is
// admitted as it is, and the supernode is not put again. It returns the
// offered key.
func (e *Enclave) admitOfferLocked(offerBytes []byte, userName string, userKey ed25519.PublicKey) (*ecdh.PublicKey, error) {
	if !e.isOwnerLocked() {
		return nil, fmt.Errorf("%w: only the owner may grant volume access", ErrAccessDenied)
	}
	offer, err := DecodeOffer(offerBytes)
	if err != nil {
		return nil, err
	}
	if !verifySignature(userKey, offer.Quote.Encode(), offer.UserSig) {
		return nil, fmt.Errorf("%w: offer not signed by %s's key", ErrExchangeInvalid, userName)
	}
	remoteKey, err := e.verifyAttestedKeyLocked(offer.Quote, offer.EnclaveKey)
	if err != nil {
		return nil, err
	}
	if err := e.updateSupernodeLocked(true, func() (bool, error) {
		if _, err := e.super.FindUserByKey(userKey); err == nil {
			return false, nil
		}
		_, err := e.super.AddUser(userName, userKey)
		return true, err
	}); err != nil {
		return nil, err
	}
	return remoteKey, nil
}

// verifyAttestedKeyLocked validates a quote via the attestation service,
// checks it names this NEXUS enclave build, confirms it binds keyBytes,
// and returns the parsed ECDH public key.
func (e *Enclave) verifyAttestedKeyLocked(quote *sgx.Quote, keyBytes []byte) (*ecdh.PublicKey, error) {
	if e.ias == nil {
		return nil, ErrNoAttestation
	}
	var report *sgx.VerificationReport
	if err := e.sgx.Ocall(func() error {
		var err error
		report, err = e.ias.VerifyQuote(quote)
		return err
	}); err != nil {
		return nil, fmt.Errorf("%w: quote verification: %v", ErrExchangeInvalid, err)
	}
	if err := sgx.VerifyReport(e.ias.PublicKey(), report); err != nil {
		return nil, fmt.Errorf("%w: attestation report: %v", ErrExchangeInvalid, err)
	}
	if report.Quote.Measurement != e.sgx.Measurement() {
		return nil, fmt.Errorf("%w: quote from enclave %s, want %s (not a NEXUS enclave)",
			ErrExchangeInvalid, report.Quote.Measurement, e.sgx.Measurement())
	}
	if !bytes.Equal(report.Quote.ReportData[:sha256.Size], keyDigest(keyBytes)) {
		return nil, fmt.Errorf("%w: quote does not bind the presented ECDH key", ErrExchangeInvalid)
	}
	key, err := ecdh.P256().NewPublicKey(keyBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: bad ECDH key: %v", ErrExchangeInvalid, err)
	}
	return key, nil
}

// wrapRootKeyLocked encrypts the rootkey to remote under the ECDH secret
// it shares with eph, with a fresh nonce and the volume UUID as AAD.
func (e *Enclave) wrapRootKeyLocked(eph *ecdh.PrivateKey, remote *ecdh.PublicKey) (nonce, ciphertext []byte, err error) {
	secret, err := eph.ECDH(remote)
	if err != nil {
		return nil, nil, fmt.Errorf("deriving exchange secret: %w", err)
	}
	gcm, err := exchangeCipher(secret)
	if err != nil {
		return nil, nil, err
	}
	nonce = make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, nil, fmt.Errorf("generating grant nonce: %w", err)
	}
	return nonce, gcm.Seal(nil, nonce, e.rootKey, e.super.VolumeUUID[:]), nil
}

// unwrapRootKey recovers the rootkey a grant carries and returns it
// SGX-sealed to the volume. A signed grant is still untrusted input: the
// owner's identity key lives outside the enclave, so the owner user can
// sign any nonce, and one of the wrong length would panic inside GCM.
func (e *Enclave) unwrapRootKey(priv *ecdh.PrivateKey, peer *ecdh.PublicKey, nonce, ciphertext []byte, volumeID uuid.UUID) ([]byte, error) {
	secret, err := priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("deriving exchange secret: %w", err)
	}
	gcm, err := exchangeCipher(secret)
	if err != nil {
		return nil, err
	}
	if len(nonce) != gcm.NonceSize() {
		return nil, fmt.Errorf("%w: grant nonce is %d bytes, want %d", ErrExchangeInvalid, len(nonce), gcm.NonceSize())
	}
	rootKey, err := gcm.Open(nil, nonce, ciphertext, volumeID[:])
	if err != nil {
		return nil, fmt.Errorf("%w: rootkey decryption failed (grant not for this enclave?)", ErrExchangeInvalid)
	}
	if len(rootKey) != metadata.RootKeySize {
		return nil, fmt.Errorf("%w: recovered key has wrong size", ErrExchangeInvalid)
	}
	sealed, err := e.sgx.Seal(rootKey, volumeID[:])
	if err != nil {
		return nil, fmt.Errorf("sealing received rootkey: %w", err)
	}
	return sealed, nil
}

// verifySignature is ed25519.Verify over a caller-supplied key: a key
// of the wrong length fails verification instead of panicking inside
// the ecall, which sgx.Ecall does not recover.
func verifySignature(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// keyDigest derives the 32-byte report data binding an ECDH public key
// into a quote.
func keyDigest(pub []byte) []byte {
	d := sha256.Sum256(pub)
	return d[:]
}

// exchangeCipher builds the AEAD used to protect the rootkey in transit:
// AES-256-GCM keyed with SHA-256 of the ECDH shared secret.
func exchangeCipher(secret []byte) (cipher.AEAD, error) {
	kek := sha256.Sum256(secret)
	block, err := aes.NewCipher(kek[:])
	if err != nil {
		return nil, fmt.Errorf("exchange cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("exchange GCM: %w", err)
	}
	return gcm, nil
}
