package enclave

import (
	"bytes"
	"testing"

	"nexus/internal/sgx"
)

// FuzzExchangeDecode hammers the exchange message decoders, which parse
// store objects inside ecalls, with hostile bytes. The first argument
// picks the decoder: offer, grant, mutual grant, or the quote an offer
// and a mutual grant carry. No decoder may panic, and whatever one
// accepts must re-encode to exactly the bytes it was given: the decode
// is strict and the encoding canonical. The seeds are real messages of
// both exchanges.
func FuzzExchangeDecode(f *testing.F) {
	s := newExchangeScenario(f)
	offer, err := s.aliceEnv.enclave.CreateExchangeOffer("alice", s.alice.signer())
	if err != nil {
		f.Fatal(err)
	}
	grant, err := s.owenEnv.enclave.GrantAccess(offer, "alice", s.alice.pub, s.owen.signer())
	if err != nil {
		f.Fatal(err)
	}
	mutualOffer, err := s.aliceEnv.enclave.BeginMutualExchange("alice", s.alice.signer())
	if err != nil {
		f.Fatal(err)
	}
	mutualGrant, err := s.owenEnv.enclave.GrantAccessMutual(mutualOffer, "alice", s.alice.pub, s.owen.signer())
	if err != nil {
		f.Fatal(err)
	}
	decoded, err := DecodeOffer(offer)
	if err != nil {
		f.Fatal(err)
	}
	for kind, seed := range [][]byte{offer, grant, mutualGrant, decoded.Quote.Encode()} {
		f.Add(uint8(kind), seed)
		f.Add(uint8(kind), seed[:len(seed)/2])
	}
	f.Add(uint8(0), mutualOffer)

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var re []byte
		switch kind % 4 {
		case 0:
			o, err := DecodeOffer(data)
			if err != nil {
				return
			}
			re = o.Encode()
		case 1:
			g, err := DecodeGrant(data)
			if err != nil {
				return
			}
			re = g.Encode()
		case 2:
			g, err := DecodeMutualGrant(data)
			if err != nil {
				return
			}
			re = g.Encode()
		case 3:
			q, err := sgx.DecodeQuote(data)
			if err != nil {
				return
			}
			re = q.Encode()
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decoder %d accepted a non-canonical input: %d bytes in, %d out", kind%4, len(data), len(re))
		}
	})
}
