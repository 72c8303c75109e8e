package afs

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"nexus/internal/netsim"
)

// The server reads frames from an untrusted network; hostile input must
// never crash it or wedge other clients.

func TestServerSurvivesGarbageConnections(t *testing.T) {
	_, addr := startServer(t)

	// A healthy client to verify liveness throughout.
	healthy := dialClient(t, addr, ClientConfig{})
	if err := healthy.Put("canary", []byte("alive")); err != nil {
		t.Fatal(err)
	}

	payloads := [][]byte{
		{},                       // immediate close
		{0x00},                   // truncated length
		{0xff, 0xff, 0xff, 0xff}, // absurd frame length
		{0x00, 0x00, 0x00, 0x00}, // zero-length frame (below header min)
		{0x09, 0x00, 0x00, 0x00, 0x63, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown op 99 without hello
	}
	for i, payload := range payloads {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if len(payload) > 0 {
			_, _ = conn.Write(payload)
		}
		_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		buf := make([]byte, 64)
		_, _ = conn.Read(buf) // drain whatever comes back
		_ = conn.Close()
	}

	// Random fuzz frames with plausible lengths, drawn from the shared
	// seeded RNG so the byte stream is identical on every run.
	rng := netsim.NewRand(99)
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("fuzz dial %d: %v", i, err)
		}
		n := 9 + rng.Intn(64)
		frame := make([]byte, 4+n)
		binary.LittleEndian.PutUint32(frame[0:4], uint32(n))
		rng.Read(frame[4:])
		_, _ = conn.Write(frame)
		_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		buf := make([]byte, 64)
		_, _ = conn.Read(buf)
		_ = conn.Close()
	}

	// The server still serves correct clients.
	got, err := healthy.Get("canary")
	if err != nil || string(got) != "alive" {
		t.Fatalf("healthy client after garbage: %q, %v", got, err)
	}
	fresh := dialClient(t, addr, ClientConfig{})
	if err := fresh.Ping(); err != nil {
		t.Fatalf("fresh client after garbage: %v", err)
	}
}

func TestServerRejectsMalformedRequestsOnValidSession(t *testing.T) {
	_, addr := startServer(t)

	// Complete a real hello, then send structurally invalid request
	// bodies; each must yield an error frame, not a dropped connection.
	conn := rawSession(t, addr, "fuzzer!")

	// Fetch with truncated name field.
	if err := writeFrame(conn, opFetch, 2, rawFrame([]byte{0xff, 0xff})); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatalf("response to malformed fetch: %v", err)
	}
	if resp.op != opError {
		t.Fatalf("malformed fetch answered with op %d, want error", resp.op)
	}

	// Store with a bogus payload length prefix.
	body := []byte{0x01, 0, 0, 0, 'x', 0xff, 0xff, 0xff, 0x7f}
	if err := writeFrame(conn, opStore, 3, rawFrame(body)); err != nil {
		t.Fatal(err)
	}
	resp, err = readFrame(conn)
	if err != nil {
		t.Fatalf("response to malformed store: %v", err)
	}
	if resp.op != opError {
		t.Fatalf("malformed store answered with op %d, want error", resp.op)
	}

	// The session remains usable after rejected requests.
	if err := writeFrame(conn, opPing, 4, nil); err != nil {
		t.Fatal(err)
	}
	resp, err = readFrame(conn)
	if err != nil || resp.op != opReply {
		t.Fatalf("ping after rejections: op %d, %v", resp.op, err)
	}
}
