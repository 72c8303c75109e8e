package afs

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"nexus/internal/netsim"
	"nexus/internal/serial"
)

// fuzzFrameBytes encodes a frame the way writeFrame does, for seeding.
func fuzzFrameBytes(op opCode, reqID uint64, body *serial.Writer) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, op, reqID, body); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzWireDecode feeds arbitrary bytes to the RPC frame parser. readFrame
// must never panic, and any frame it accepts must survive a
// re-encode/re-decode round trip unchanged — the property that keeps a
// NEXUS client and the untrusted server's view of the stream consistent.
// The body decoders (decodeError, decodeLockRequest, decodeLockReply,
// decodeRecallAnswer) are exercised on the same input since those bodies
// arrive from the network too.
func FuzzWireDecode(f *testing.F) {
	f.Add(fuzzFrameBytes(opHello, 1, rawFrame([]byte("client-1"))))
	f.Add(fuzzFrameBytes(opPing, 42, nil))
	f.Add(fuzzFrameBytes(opError, 7, encodeError(errCodeNotExist, "missing")))
	f.Add([]byte{})
	f.Add([]byte{0x09, 0x00, 0x00, 0x00, 0x01})                                  // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})                                  // absurd length claim
	f.Add(append(fuzzFrameBytes(opStore, 3, rawFrame([]byte("x"))), 0xde, 0xad)) // trailing junk
	// The lock exchange and the one-way unlock.
	f.Add(fuzzFrameBytes(opLock, 21, encodeLockRequest("victim", true, 9)))
	f.Add(fuzzFrameBytes(opLock, 22, encodeLockRequest("victim", false, 0)))
	f.Add(fuzzFrameBytes(opReply, 21, encodeLockReply(lockUnchanged, false, 0, nil)))
	f.Add(fuzzFrameBytes(opReply, 22, encodeLockReply(lockAbsent, false, 0, nil)))
	f.Add(fuzzFrameBytes(opReply, 23, encodeLockReply(lockData, false, 10, bytes.Repeat([]byte{0xcd}, 64))))
	// The same replies to a client whose callback channel the server gave
	// up on, and the flag bit alone.
	f.Add(fuzzFrameBytes(opReply, 25, encodeLockReply(lockUnchanged, true, 0, nil)))
	f.Add(fuzzFrameBytes(opReply, 26, encodeLockReply(lockAbsent, true, 0, nil)))
	f.Add(fuzzFrameBytes(opReply, 27, encodeLockReply(lockData, true, 11, bytes.Repeat([]byte{0xce}, 64))))
	f.Add(fuzzFrameBytes(opReply, 28, rawFrame([]byte{lockCallbackLost})))
	f.Add(fuzzFrameBytes(opUnlock, 24, encodeName("victim")))
	f.Add(fuzzFrameBytes(opReply, 5, nil)) // callback-break ack
	// A recall of a kept lock and both of its answers.
	f.Add(fuzzFrameBytes(opRecall, 29, encodeName("victim")))
	f.Add(fuzzFrameBytes(opReply, 29, encodeRecallAnswer(recallReleased)))
	f.Add(fuzzFrameBytes(opReply, 30, encodeRecallAnswer(recallBusy)))

	// Mid-frame cuts exactly as the fault injector produces them: well
	// formed frames truncated at the injector's scheduled fractions, so
	// the corpus covers the byte prefixes a peer actually observes when a
	// connection dies mid-write.
	cutter := netsim.FaultProfile{Seed: 7, Truncate: 1}
	wholeFrames := [][]byte{
		fuzzFrameBytes(opStore, 11, rawFrame(append(frameBody(encodeName("victim")), bytes.Repeat([]byte{0xab}, 256)...))),
		fuzzFrameBytes(opFetch, 12, encodeName("victim")),
		fuzzFrameBytes(opError, 13, encodeError(errCodeInternal, "backend exploded")),
		fuzzFrameBytes(opInvalidate, 0, encodeName("victim")),
		fuzzFrameBytes(opRecall, 0, encodeName("victim")),
	}
	for i, whole := range wholeFrames {
		ev := cutter.WriteFault(uint64(i))
		n := int(ev.Frac * float64(len(whole)))
		if n >= len(whole) {
			n = len(whole) - 1
		}
		if n < 0 {
			n = 0
		}
		f.Add(whole[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// readFrame trusts the claimed length only up to maxFrameSize, but
		// still allocates it before reading; skip inputs that claim a huge
		// body they do not carry, so the fuzzer doesn't spend its budget
		// zeroing buffers that a 1 MiB claim already covers.
		if len(data) >= 4 {
			if n := binary.LittleEndian.Uint32(data[:4]); n > 1<<20 && uint64(len(data)-4) < uint64(n) {
				t.Skip("oversized length claim without a body")
			}
		}

		fr, err := readFrame(bytes.NewReader(data))
		if err == nil {
			var buf bytes.Buffer
			if err := writeFrame(&buf, fr.op, fr.reqID, rawFrame(fr.body)); err != nil {
				t.Fatalf("re-encoding accepted frame: %v", err)
			}
			back, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("re-decoding re-encoded frame: %v", err)
			}
			if back.op != fr.op || back.reqID != fr.reqID || !bytes.Equal(back.body, fr.body) {
				t.Fatalf("round trip mismatch: %+v != %+v", back, fr)
			}
		}

		// opError bodies, lock requests and lock replies come straight off
		// the wire; decoding must be total (an error result is fine, a
		// panic is not) on raw input and on any accepted frame's body.
		for _, body := range [][]byte{data, fr.body} {
			_ = decodeError(body)
			if name, cached, version, err := decodeLockRequest(body); err == nil {
				if back := frameBody(encodeLockRequest(name, cached, version)); !bytes.Equal(back, body) {
					t.Fatalf("lock request re-encodes to %x, was %x", back, body)
				}
			}
			if outcome, lost, version, payload, err := decodeLockReply(body); err == nil {
				if back := frameBody(encodeLockReply(outcome, lost, version, payload)); !bytes.Equal(back, body) {
					t.Fatalf("lock reply re-encodes to %x, was %x", back, body)
				}
			}
			if answer, err := decodeRecallAnswer(body); err == nil {
				if back := frameBody(encodeRecallAnswer(answer)); !bytes.Equal(back, body) {
					t.Fatalf("recall answer re-encodes to %x, was %x", back, body)
				}
			}
		}
	})
}

// FuzzRetrySchedule drives the retry/backoff state machine with
// arbitrary policies and checks its safety invariants: the un-jittered
// backoff curve is monotone non-decreasing and never exceeds the cap,
// jittered waits stay within jitterFrac of the curve, and the
// idempotency classifier never lets a mutating op be re-sent.
func FuzzRetrySchedule(f *testing.F) {
	f.Add(int64(0), 4, int64(5_000_000), int64(1_000_000_000), uint8(opFetch))
	f.Add(int64(42), 1, int64(-5), int64(0), uint8(opStore))
	f.Add(int64(7), 100, int64(1), int64(1), uint8(opLock))
	f.Add(int64(-1), 0, int64(1<<40), int64(1), uint8(opPing))
	f.Fuzz(func(t *testing.T, seed int64, attempts int, base, ceil int64, op uint8) {
		p := RetryPolicy{
			MaxAttempts: attempts,
			BaseBackoff: time.Duration(base),
			MaxBackoff:  time.Duration(ceil),
			Seed:        seed,
		}
		st := newRetryState(p)
		eff := st.policy
		if eff.MaxAttempts < 1 || eff.BaseBackoff <= 0 || eff.MaxBackoff < eff.BaseBackoff {
			t.Fatalf("withDefaults produced an unsafe policy: %+v", eff)
		}
		prev := time.Duration(0)
		for n := 1; n <= 24; n++ {
			d := eff.backoffAt(n)
			if d < prev {
				t.Fatalf("backoff not monotone: backoffAt(%d)=%v < %v", n, d, prev)
			}
			if d > eff.MaxBackoff {
				t.Fatalf("backoffAt(%d)=%v exceeds cap %v", n, d, eff.MaxBackoff)
			}
			w := st.wait(n)
			if w < d {
				t.Fatalf("wait(%d)=%v below un-jittered backoff %v", n, w, d)
			}
			// +1 absorbs the float->Duration floor.
			if bound := d + time.Duration(jitterFrac*float64(d)) + 1; w > bound {
				t.Fatalf("wait(%d)=%v exceeds jitter bound %v", n, w, bound)
			}
			prev = d
		}
		// The classifier must never clear a mutating op for re-send.
		switch opCode(op) {
		case opStore, opRemove, opLock, opUnlock, opHello:
			if retryable(opCode(op)) {
				t.Fatalf("non-idempotent op %s classified retryable", opCode(op))
			}
		case opFetch, opStat, opList, opPing:
			if !retryable(opCode(op)) {
				t.Fatalf("idempotent op %s classified non-retryable", opCode(op))
			}
		}
	})
}
