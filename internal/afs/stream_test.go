package afs

import (
	"bytes"
	"errors"
	"testing"
)

// segmented returns a next() producer yielding data in segments of the
// given sizes (the remainder rides on the last segment).
func segmented(data []byte, sizes ...int) func() ([]byte, error) {
	off := 0
	i := 0
	return func() ([]byte, error) {
		if off >= len(data) {
			return nil, nil
		}
		n := len(data) - off
		if i < len(sizes) && sizes[i] < n {
			n = sizes[i]
		}
		i++
		seg := data[off : off+n]
		off += n
		return seg, nil
	}
}

// TestPutVersionedStreamRoundTrip stores a file through the scattered
// frame writer and checks the server assembled it byte-identically, the
// version stream advanced, and the client cache was populated from the
// passing segments (the warm read must not issue an RPC).
func TestPutVersionedStreamRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})

	data := make([]byte, 96<<10)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	v1, err := c.PutVersionedStream("f", len(data), segmented(data, 4096, 1, 64<<10))
	if err != nil {
		t.Fatalf("PutVersionedStream: %v", err)
	}
	if v1 == 0 {
		t.Fatal("streamed put returned version 0")
	}

	rpcsBefore, hitsBefore := c.Stats()
	got, v, err := c.GetVersioned("f")
	if err != nil {
		t.Fatalf("GetVersioned: %v", err)
	}
	if !bytes.Equal(got, data) || v != v1 {
		t.Fatalf("round trip mismatch (version %d vs %d)", v, v1)
	}
	rpcsAfter, hitsAfter := c.Stats()
	if rpcsAfter != rpcsBefore || hitsAfter != hitsBefore+1 {
		t.Fatalf("warm read after streamed put: rpcs %d→%d hits %d→%d, want cache hit and no RPC",
			rpcsBefore, rpcsAfter, hitsBefore, hitsAfter)
	}

	// Empty stream: zero-length object, still versioned.
	v2, err := c.PutVersionedStream("empty", 0, segmented(nil))
	if err != nil {
		t.Fatalf("empty streamed put: %v", err)
	}
	gotEmpty, _, err := c.GetVersioned("empty")
	if err != nil || len(gotEmpty) != 0 || v2 == 0 {
		t.Fatalf("empty round trip: data %v version %d err %v", gotEmpty, v2, err)
	}
}

// TestPutVersionedStreamSecondClientSees checks cross-client visibility:
// a file stored through the streaming put is fetched by another client,
// proving the frame on the wire is an ordinary store.
func TestPutVersionedStreamSecondClientSees(t *testing.T) {
	_, addr := startServer(t)
	a := dialClient(t, addr, ClientConfig{})
	b := dialClient(t, addr, ClientConfig{})

	data := bytes.Repeat([]byte("scattered-"), 1000)
	if _, err := a.PutVersionedStream("x", len(data), segmented(data, 512)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("second client read mismatch after streamed put")
	}
}

// TestPutVersionedStreamProducerFailure checks the abort contract: when
// the producer errors mid-frame, the call fails with that error, the
// server applies nothing (the old version survives), and the client
// recovers onto a fresh connection for subsequent RPCs.
func TestPutVersionedStreamProducerFailure(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})

	old := []byte("old contents")
	if _, err := c.PutVersioned("f", old); err != nil {
		t.Fatal(err)
	}

	sealFail := errors.New("chunk seal failed")
	calls := 0
	next := func() ([]byte, error) {
		calls++
		if calls == 1 {
			return make([]byte, 1024), nil
		}
		return nil, sealFail
	}
	gen := c.gen.Load()
	_, err := c.PutVersionedStream("f", 4096, next)
	if !errors.Is(err, sealFail) {
		t.Fatalf("producer failure = %v, want %v", err, sealFail)
	}
	// The producer failed, not the transport: the half-written frame's
	// connection is gone, but no fault is counted and the error does not
	// claim an interrupted exchange.
	if errors.Is(err, ErrInterrupted) || errors.Is(err, ErrUnavailable) || c.metrics.transportFaults.Value() != 0 {
		t.Fatalf("producer failure reported as a transport fault: %v (faults %d)", err, c.metrics.transportFaults.Value())
	}
	if c.currentConn() != nil {
		t.Fatal("connection carrying a half-written frame was kept")
	}

	// The aborted frame must not have been applied, and the client must
	// have resynced (the cache was invalidated, so this is a real fetch).
	got, err := c.Get("f")
	if err != nil {
		t.Fatalf("Get after aborted stream: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("aborted streamed put changed contents: %q", got)
	}
	if c.gen.Load() != gen+1 {
		t.Fatalf("connection generation %d → %d, want one reconnect", gen, c.gen.Load())
	}
}

// TestPutVersionedStreamLengthMismatch checks that a producer yielding
// a different byte count than announced aborts the exchange instead of
// desynchronizing the protocol.
func TestPutVersionedStreamLengthMismatch(t *testing.T) {
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})

	short := segmented(make([]byte, 100))
	if _, err := c.PutVersionedStream("f", 200, short); err == nil {
		t.Fatal("short segment stream succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after aborted stream: %v", err)
	}
}
