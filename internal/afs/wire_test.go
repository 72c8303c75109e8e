package afs

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/obs"
	"nexus/internal/serial"
)

// rawFrame wraps already-encoded body bytes as an outgoing frame.
func rawFrame(body []byte) *serial.Writer {
	w := newFrame(len(body))
	w.WriteRaw(body)
	return w
}

// frameBody returns the body bytes of a frame started with newFrame.
func frameBody(w *serial.Writer) []byte { return w.Bytes()[frameHeaderLen:] }

// Every error frame path: each wire error code must map back to the
// right Go sentinel, and malformed error bodies must degrade to
// ErrProtocol rather than panic or silently succeed.
func TestDecodeErrorTable(t *testing.T) {
	cases := []struct {
		name     string
		body     []byte
		sentinel error // required in the chain, nil if none
		contains string
	}{
		{
			name:     "not-exist maps to backend.ErrNotExist",
			body:     frameBody(encodeError(errCodeNotExist, "obj-1")),
			sentinel: backend.ErrNotExist,
			contains: "obj-1",
		},
		{
			name:     "bad-name maps to backend.ErrBadName",
			body:     frameBody(encodeError(errCodeBadName, "../evil")),
			sentinel: backend.ErrBadName,
			contains: "../evil",
		},
		{
			name:     "bad-request is a plain server error",
			body:     frameBody(encodeError(errCodeBadRequest, "short body")),
			contains: "short body",
		},
		{
			name:     "internal is a plain server error",
			body:     frameBody(encodeError(errCodeInternal, "disk on fire")),
			contains: "disk on fire",
		},
		{
			name:     "unknown code degrades to ErrProtocol",
			body:     frameBody(encodeError(errCode(200), "future code")),
			sentinel: ErrProtocol,
			contains: "200",
		},
		{
			name:     "empty body is ErrProtocol",
			body:     nil,
			sentinel: ErrProtocol,
		},
		{
			name:     "truncated message field is ErrProtocol",
			body:     []byte{byte(errCodeNotExist), 0xff, 0xff, 0xff},
			sentinel: ErrProtocol,
		},
		{
			name:     "trailing junk is ErrProtocol",
			body:     append(frameBody(encodeError(errCodeNotExist, "x")), 0xde, 0xad),
			sentinel: ErrProtocol,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeError(tc.body)
			if err == nil {
				t.Fatal("decodeError returned nil")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Fatalf("error %q does not wrap %v", err, tc.sentinel)
			}
			if tc.sentinel == nil {
				// Plain server errors must NOT match any sentinel a caller
				// would branch on.
				for _, s := range []error{backend.ErrNotExist, backend.ErrBadName, ErrProtocol} {
					if errors.Is(err, s) {
						t.Fatalf("plain server error %q wraps %v", err, s)
					}
				}
			}
			if tc.contains != "" && !strings.Contains(err.Error(), tc.contains) {
				t.Fatalf("error %q missing %q", err, tc.contains)
			}
		})
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, opStore, 0, rawFrame(make([]byte, maxFrameSize))); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversize frame: %v, want ErrProtocol", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize frame leaked %d bytes onto the wire", buf.Len())
	}
}

func TestReadFrameErrorPaths(t *testing.T) {
	cases := []struct {
		name     string
		data     []byte
		sentinel error
	}{
		{"empty stream is clean EOF", nil, io.EOF},
		{"mid-header cut is clean EOF", []byte{0x09, 0x00}, io.EOF},
		{"zero length is ErrProtocol", []byte{0, 0, 0, 0}, ErrProtocol},
		{"length below header min is ErrProtocol", []byte{0x08, 0, 0, 0}, ErrProtocol},
		{"absurd length is ErrProtocol", []byte{0xff, 0xff, 0xff, 0xff}, ErrProtocol},
		{"mid-body cut is an error", []byte{0x0a, 0x00, 0x00, 0x00, byte(opPing), 1, 0, 0, 0, 0, 0, 0}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readFrame(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("readFrame accepted malformed input")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Fatalf("got %v, want %v in chain", err, tc.sentinel)
			}
		})
	}
}

func TestReadFrameRoundTrip(t *testing.T) {
	for _, f := range []frame{
		{op: opPing, reqID: 1},
		{op: opStore, reqID: 1 << 60, body: []byte("payload")},
		{op: opInvalidate, reqID: 0, body: frameBody(encodeName("file-7"))},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, f.op, f.reqID, rawFrame(f.body)); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.op != f.op || got.reqID != f.reqID || !bytes.Equal(got.body, f.body) {
			t.Fatalf("round trip: %+v != %+v", got, f)
		}
	}
}

func TestOpCodeStrings(t *testing.T) {
	for op, want := range map[opCode]string{
		opFetch: "fetch", opStore: "store", opLock: "lock", opRecall: "recall",
		opCode(250): "op(250)",
	} {
		if got := op.String(); got != want {
			t.Errorf("opCode(%d).String() = %q, want %q", uint8(op), got, want)
		}
	}
}

// writeLog records every Write made on the connections it wraps.
type writeLog struct {
	mu     sync.Mutex
	writes [][]byte // guarded by mu
}

type loggedConn struct {
	net.Conn
	log *writeLog
}

func (c *loggedConn) Write(b []byte) (int, error) {
	c.log.mu.Lock()
	c.log.writes = append(c.log.writes, append([]byte(nil), b...))
	c.log.mu.Unlock()
	return c.Conn.Write(b)
}

type loggedListener struct {
	net.Listener
	log *writeLog
}

func (l *loggedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &loggedConn{Conn: c, log: l.log}, nil
}

// frameOps checks that every recorded Write is exactly one whole frame
// and returns how many frames of each op were written.
func (l *writeLog) frameOps(t *testing.T, side string) map[opCode]int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := make(map[opCode]int)
	for i, b := range l.writes {
		r := bytes.NewReader(b)
		f, err := readFrame(r)
		if err != nil {
			t.Fatalf("%s write %d (%d bytes) is not a whole frame: %v", side, i, len(b), err)
		}
		if r.Len() != 0 {
			t.Fatalf("%s write %d carries %d bytes beyond its %s frame", side, i, r.Len(), f.op)
		}
		ops[f.op]++
	}
	return ops
}

// The simulated network charges one-way latency per Write, so an exchange
// costs one RTT only if every frame — hello, request, reply, error,
// callback break, its ack, recall, its answer, one-way unlock — leaves in
// exactly one Write. (Streamed stores are the deliberate exception: one
// Write per segment.)
func TestEveryFrameIsOneWrite(t *testing.T) {
	srv := NewServer(backend.NewMemStore())
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serverLog, clientLog := &writeLog{}, &writeLog{}
	go func() { _ = srv.Serve(&loggedListener{Listener: inner, log: serverLog}) }()
	t.Cleanup(func() { _ = srv.Close() })
	addr := inner.Addr().String()
	dial := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &loggedConn{Conn: c, log: clientLog}, nil
	}
	a := dialClient(t, addr, ClientConfig{Dial: dial})
	bReg := obs.NewRegistry()
	b := dialClient(t, addr, ClientConfig{Dial: dial, Obs: bReg})

	mustPut(t, a, "x", bytes.Repeat([]byte{7}, 3000))
	if _, err := b.Get("x"); err != nil { // b becomes a callback holder
		t.Fatal(err)
	}
	mustPut(t, a, "x", []byte("second version")) // break to b, acked
	if _, err := a.Get("missing"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Get(missing) = %v", err)
	}
	release, err := a.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	release() // a keeps the lock: no frame
	// b's request recalls it; a's callback loop answers released.
	releaseB, err := b.Lock("x")
	if err != nil {
		t.Fatal(err)
	}
	// a's request recalls it while b holds it; b answers busy, and its
	// release sends the one-way unlock that hands the lock to a.
	granted := make(chan func())
	go func() {
		release, err := a.Lock("x")
		if err != nil {
			t.Error(err)
		}
		granted <- release
	}()
	waitFor(t, 5*time.Second, func() bool { return bReg.CounterValue("afs_lock_recalls_busy_total") == 1 })
	releaseB()
	if release := <-granted; release != nil {
		release()
	}
	if err := a.Ping(); err != nil {
		t.Fatal(err)
	}

	client := clientLog.frameOps(t, "client")
	for op, want := range map[opCode]int{
		opHello: 4, opStore: 2, opFetch: 2, opLock: 3, opUnlock: 1, opPing: 1,
		opReply: 1 + 2, // b's ack of the callback break, the answers to two recalls
	} {
		if client[op] != want {
			t.Errorf("client wrote %d %s frames, want %d (all: %v)", client[op], op, want, client)
		}
	}
	server := serverLog.frameOps(t, "server")
	for op, want := range map[opCode]int{
		opReply:      4 + 2 + 1 + 3 + 1, // hellos, stores, b's fetch, locks, ping; none for the unlock
		opError:      1,
		opInvalidate: 1,
		opRecall:     2,
	} {
		if server[op] != want {
			t.Errorf("server wrote %d %s frames, want %d (all: %v)", server[op], op, want, server)
		}
	}
}

// A 64 MiB file seals to 64 MiB + 1 KiB, one byte field above
// serial.MaxBytesLen. Object bytes are bounded by the frame instead, so
// such an object is stored, fetched and carried by a lock reply whole,
// and only a store whose frame would exceed maxFrameSize is refused,
// before any byte of it leaves the client.
func TestObjectAboveSerialFieldCap(t *testing.T) {
	const sealed64MiB = 64<<20 + 1024
	_, addr := startServer(t)
	c := dialClient(t, addr, ClientConfig{})
	data := make([]byte, sealed64MiB)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := c.Put("big", data); err != nil {
		t.Fatalf("Put of a %d B object: %v", len(data), err)
	}
	c.FlushCache()
	got, err := c.Get("big")
	if err != nil {
		t.Fatalf("Get of a %d B object: %v", len(data), err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fetched object differs from the stored one")
	}
	_, _, _, payload, err := decodeLockReply(frameBody(encodeLockReply(lockData, false, 7, data)))
	if err != nil || !bytes.Equal(payload, data) {
		t.Fatalf("lock reply carrying a %d B object: %v", len(data), err)
	}

	_, err = c.PutVersionedStream("huge", maxFrameSize, func() ([]byte, error) {
		t.Error("a store frame over maxFrameSize asked for its body")
		return nil, nil
	})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("store of a %d B object: %v, want ErrProtocol", maxFrameSize, err)
	}
	if _, err := c.Get("huge"); !errors.Is(err, backend.ErrNotExist) {
		t.Fatalf("Get of the refused object: %v, want ErrNotExist", err)
	}
}
