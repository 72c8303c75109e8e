package afs

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"nexus/internal/backend"
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
		opFetch: "fetch", opStore: "store", opLock: "lock",
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
// callback break, its ack, one-way unlock — leaves in exactly one Write.
// (Streamed stores are the deliberate exception: one Write per segment.)
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
	b := dialClient(t, addr, ClientConfig{Dial: dial})

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
	release()
	if err := a.Ping(); err != nil { // the unlock has been written before this returns
		t.Fatal(err)
	}

	client := clientLog.frameOps(t, "client")
	for op, want := range map[opCode]int{
		opHello: 4, opStore: 2, opFetch: 2, opLock: 1, opUnlock: 1, opPing: 1,
		opReply: 1, // b's ack of the callback break
	} {
		if client[op] != want {
			t.Errorf("client wrote %d %s frames, want %d (all: %v)", client[op], op, want, client)
		}
	}
	server := serverLog.frameOps(t, "server")
	for op, want := range map[opCode]int{
		opReply:      4 + 2 + 1 + 1 + 1, // hellos, stores, b's fetch, lock, ping; none for the unlock
		opError:      1,
		opInvalidate: 1,
	} {
		if server[op] != want {
			t.Errorf("server wrote %d %s frames, want %d (all: %v)", server[op], op, want, server)
		}
	}
}
