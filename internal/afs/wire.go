// Package afs implements an AFS-like distributed file service: a TCP
// server exporting whole-file fetch/store over a compact binary RPC
// protocol, and a caching client with open-to-close consistency and
// server-driven cache invalidation callbacks.
//
// The NEXUS prototype stacks on OpenAFS (DSN'19 §V) and inherits its cost
// model: whole-file transfers, a client cache that makes warm re-reads
// free, callback promises that invalidate cached copies when another
// client writes, and advisory flock()-style locks that NEXUS takes around
// metadata updates (§V-A). This package reproduces exactly those
// mechanisms so the evaluation's overhead structure carries over; it is
// not a byte-compatible AFS implementation.
package afs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"nexus/internal/backend"
	"nexus/internal/serial"
)

// Protocol limits.
const (
	// maxFrameSize bounds a single RPC frame; large files are still sent
	// whole (AFS-style), so this must exceed the largest object plus
	// headers.
	maxFrameSize = 128 << 20
)

// Operation codes. Enums start at one so the zero value is invalid.
type opCode uint8

const (
	opHello opCode = iota + 1
	opFetch
	opStore
	opRemove
	opList
	opLock
	opUnlock
	opStat
	opPing

	// opReply carries a successful response; opError a failed one.
	opReply opCode = 100
	opError opCode = 101

	// opInvalidate is pushed server→client on the callback channel when
	// another client overwrites or removes a file the client has cached;
	// the client answers with an opReply carrying the same reqID once the
	// cached copy is gone.
	opInvalidate opCode = 120
)

// String names the op for error messages.
func (op opCode) String() string {
	switch op {
	case opHello:
		return "hello"
	case opFetch:
		return "fetch"
	case opStore:
		return "store"
	case opRemove:
		return "remove"
	case opList:
		return "list"
	case opLock:
		return "lock"
	case opUnlock:
		return "unlock"
	case opStat:
		return "stat"
	case opPing:
		return "ping"
	case opReply:
		return "reply"
	case opError:
		return "error"
	case opInvalidate:
		return "invalidate"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Wire error codes, mapped back to sentinel errors client-side.
type errCode uint8

const (
	errCodeNotExist errCode = iota + 1
	errCodeBadName
	errCodeBadRequest
	errCodeInternal
)

// Errors surfaced by the client.
var (
	// ErrClosed reports use of a closed client or server.
	ErrClosed = errors.New("afs: connection closed")
	// ErrProtocol reports a malformed frame.
	ErrProtocol = errors.New("afs: protocol violation")
)

// frame is one received protocol message.
type frame struct {
	op    opCode
	reqID uint64
	body  []byte
}

// frameHeaderLen is the fixed frame prefix: u32 payload length ‖ op(1) ‖
// reqID(8).
const frameHeaderLen = 4 + 1 + 8

// newFrame starts an outgoing frame: a serial.Writer whose first
// frameHeaderLen bytes are reserved for the header writeFrame fills in,
// so the body is encoded straight into the buffer that goes on the wire.
func newFrame(bodyHint int) *serial.Writer {
	w := serial.NewWriter(frameHeaderLen + bodyHint)
	var hdr [frameHeaderLen]byte
	w.WriteRaw(hdr[:])
	return w
}

// putFrameHeader fills the reserved header of a frame whose body is
// bodyLen bytes long.
func putFrameHeader(hdr []byte, op opCode, reqID uint64, bodyLen int) error {
	payload := 1 + 8 + bodyLen
	if payload > maxFrameSize {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, payload)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload))
	hdr[4] = byte(op)
	binary.LittleEndian.PutUint64(hdr[5:13], reqID)
	return nil
}

// writeFrame sends a frame started with newFrame (nil = empty body) as:
// u32 payload length ‖ op(1) ‖ reqID(8) ‖ body. Header and body leave in
// a single Write: the simulated network charges one-way latency per
// Write, so a request/reply exchange costs exactly one RTT, and a
// connection that dies mid-write leaves the peer a strict prefix of one
// frame, which its readFrame discards.
func writeFrame(w io.Writer, op opCode, reqID uint64, f *serial.Writer) error {
	if f == nil {
		f = newFrame(0)
	}
	buf := f.Bytes()
	if err := putFrameHeader(buf, op, reqID, len(buf)-frameHeaderLen); err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("afs: writing frame: %w", err)
	}
	return nil
}

// errProducer marks a writeFrameScatter failure that came from the
// segment producer, not from the connection.
var errProducer = errors.New("afs: producing frame body")

// writeFrameScatter sends one frame whose body is prefix (started with
// newFrame) followed by segTotal bytes produced incrementally by next
// (nil segment = done). Header and prefix leave in a single write, as in
// writeFrame, and each produced segment goes out as soon as it exists,
// so payload production (chunk sealing) overlaps the transfer. The
// receiver sees one ordinary frame; scatter/gather framing is purely a
// sender-side shape.
//
// A producer error or a short/overlong segment stream leaves a partial
// frame on the wire: the connection is unusable and the caller must
// drop it (the peer's io.ReadFull then fails, discarding the partial
// frame without applying anything).
func writeFrameScatter(w io.Writer, op opCode, reqID uint64, prefix *serial.Writer, segTotal int, next func() ([]byte, error)) error {
	buf := prefix.Bytes()
	if err := putFrameHeader(buf, op, reqID, len(buf)-frameHeaderLen+segTotal); err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("afs: writing frame header: %w", err)
	}
	sent := 0
	for {
		seg, err := next()
		if err != nil {
			return fmt.Errorf("%w: %w", errProducer, err)
		}
		if seg == nil {
			break
		}
		if sent += len(seg); sent > segTotal {
			return fmt.Errorf("%w: segment stream produced %d bytes, announced %d", ErrProtocol, sent, segTotal)
		}
		if _, err := w.Write(seg); err != nil {
			return fmt.Errorf("afs: writing frame body: %w", err)
		}
	}
	if sent != segTotal {
		return fmt.Errorf("%w: segment stream ended at %d bytes, announced %d", ErrProtocol, sent, segTotal)
	}
	return nil
}

// readData reads an object's length-prefixed bytes. serial.ReadBytes
// clamps every cap to serial.MaxBytesLen (64 MiB), under the sealed size
// of a 64 MiB file, so the field is read raw: its length is bounded by
// the frame, which readFrame already held to maxFrameSize.
func readData(r *serial.Reader) []byte {
	return r.ReadRaw(int(r.ReadUint32("data length")), "data")
}

// readFrame reads the next frame from r.
func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return frame{}, io.EOF
		}
		return frame{}, fmt.Errorf("afs: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 9 || n > maxFrameSize {
		return frame{}, fmt.Errorf("%w: frame length %d", ErrProtocol, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return frame{}, fmt.Errorf("afs: reading frame body: %w", err)
	}
	return frame{
		op:    opCode(payload[0]),
		reqID: binary.LittleEndian.Uint64(payload[1:9]),
		body:  payload[9:],
	}, nil
}

// encodeError builds an opError frame.
func encodeError(code errCode, msg string) *serial.Writer {
	w := newFrame(8 + len(msg))
	w.WriteUint8(uint8(code))
	w.WriteString(msg)
	return w
}

// decodeError converts an opError body back to a Go error.
func decodeError(body []byte) error {
	r := serial.NewReader(body)
	code := errCode(r.ReadUint8("error code"))
	msg := r.ReadString(0, "error message")
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: bad error frame: %v", ErrProtocol, err)
	}
	switch code {
	case errCodeNotExist:
		return fmt.Errorf("afs: %s: %w", msg, backend.ErrNotExist)
	case errCodeBadName:
		return fmt.Errorf("afs: %s: %w", msg, backend.ErrBadName)
	case errCodeBadRequest, errCodeInternal:
		return fmt.Errorf("afs: server error: %s", msg)
	default:
		return fmt.Errorf("%w: unknown error code %d (%s)", ErrProtocol, code, msg)
	}
}

// closeWrite half-closes c if supported, nudging the peer's read loop.
func closeWrite(c net.Conn) {
	type closeWriter interface{ CloseWrite() error }
	if cw, ok := c.(closeWriter); ok {
		_ = cw.CloseWrite()
	}
}
