package afs

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/backend"
	"nexus/internal/obs"
	"nexus/internal/serial"
)

// Server is an AFS-like file server. It stores whole files in a
// backend.Store, tracks per-file version numbers, grants exclusive
// advisory locks, and issues callback invalidations to clients holding
// cached copies when a file changes — the essentials of an AFS fileserver
// from the perspective of a NEXUS client.
type Server struct {
	store backend.Store

	mu        sync.Mutex
	versions  map[string]uint64            // per-file version counters; guarded by mu
	cachedBy  map[string]map[string]bool   // file -> clientIDs with cached copies; guarded by mu
	callbacks map[string]*callbackConn     // clientID -> callback channel; guarded by mu
	locks     map[string]*lockState        // file -> lock queue; guarded by mu
	sessions  map[string]map[*session]bool // clientID -> live RPC sessions; guarded by mu
	listeners map[net.Listener]bool        // guarded by mu
	conns     map[net.Conn]bool            // accepted connections; guarded by mu
	closed    bool                         // guarded by mu

	// handlers counts the running connection handlers, which Close waits
	// for. Every Add happens under mu while closed is unset.
	handlers sync.WaitGroup

	metrics serverMetrics

	logf func(format string, args ...any)
}

// serverMetrics holds the server's obs instrument handles; the legacy
// Stats accessor is a shim over the fetch/store counters.
type serverMetrics struct {
	fetches       *obs.Counter // afs_server_fetches_total
	stores        *obs.Counter // afs_server_stores_total
	requests      *obs.Counter // afs_server_requests_total
	invalidations *obs.Counter // afs_server_invalidations_total
	recalls       *obs.Counter // afs_server_lock_recalls_total
	reclaims      *obs.Counter // afs_server_lock_reclaims_total
	conns         *obs.Gauge   // afs_server_conns
	requestLat    *obs.Histogram
}

func (m *serverMetrics) bind(reg *obs.Registry) {
	m.fetches = reg.Counter("afs_server_fetches_total")
	m.stores = reg.Counter("afs_server_stores_total")
	m.requests = reg.Counter("afs_server_requests_total")
	m.invalidations = reg.Counter("afs_server_invalidations_total")
	m.recalls = reg.Counter("afs_server_lock_recalls_total")
	m.reclaims = reg.Counter("afs_server_lock_reclaims_total")
	m.conns = reg.Gauge("afs_server_conns")
	m.requestLat = reg.Histogram("afs_server_request_seconds")
}

// SetObs rebinds the server's meters onto reg (the nexus-afsd daemon
// shares one registry between the server and its /metrics endpoint).
// Call before Serve; rebinding mid-flight loses in-window counts.
func (s *Server) SetObs(reg *obs.Registry) { s.metrics.bind(reg) }

// callbackAckTimeout bounds how long a store or remove waits for one
// holder to acknowledge a callback break, and a lock request for the
// holder of a recalled lock to answer. A holder that misses it loses its
// callback connection, which makes it flush its whole cache. It is also
// the lease of a sticky lock (DESIGN.md §9.2): a client grants itself a
// lock it keeps only while a request it sent less than this long ago has
// been answered.
const callbackAckTimeout = time.Second

// callbackConn is one client's callback channel. Every break is a
// numbered opInvalidate frame, and every recall a numbered opRecall
// frame, that the holder answers with an opReply of the same number.
type callbackConn struct {
	conn    net.Conn
	mu      sync.Mutex             // serializes frame writes
	seq     uint64                 // number of the last frame sent; guarded by mu
	waiters map[uint64]chan []byte // frames awaiting their answer, nil once the channel is down; guarded by mu
	// isDown mirrors waiters == nil, for readers that must not wait on
	// mu (a frame write holds it for up to callbackAckTimeout).
	isDown atomic.Bool
}

// send pushes one numbered frame about name and waits for its answer,
// returning the answer's body; ok is false when the channel was already
// down or went down first. On a failed write or a missed deadline the
// server gives up on the channel instead: it is closed, and marked down
// before send returns, so the holder's next lock grant tells it to flush
// everything even if it has not noticed the close yet (lockCallbackLost).
func (cb *callbackConn) send(op opCode, name string) (answer []byte, ok bool, err error) {
	reply := make(chan []byte, 1)
	cb.mu.Lock()
	if cb.waiters == nil {
		cb.mu.Unlock()
		return nil, false, nil
	}
	cb.seq++
	cb.waiters[cb.seq] = reply
	_ = cb.conn.SetWriteDeadline(time.Now().Add(callbackAckTimeout))
	err = writeFrame(cb.conn, op, cb.seq, encodeName(name))
	cb.mu.Unlock()
	if err == nil {
		deadline := time.NewTimer(callbackAckTimeout)
		defer deadline.Stop()
		select {
		case answer, ok = <-reply: // answered, or the channel went down (see shutdown)
			return answer, ok, nil
		case <-deadline.C:
			err = fmt.Errorf("afs: callback %s of %s not acknowledged within %v", op, name, callbackAckTimeout)
		}
	}
	_ = cb.conn.Close()
	cb.shutdown()
	return nil, false, err
}

// breakPromise tells the holder to drop its copy of name and waits until
// it has, or the channel is down — the holder's flush covers the break.
func (cb *callbackConn) breakPromise(name string) error {
	_, _, err := cb.send(opInvalidate, name)
	return err
}

// recall asks the holder to give back its lock on name. An error means
// the holder never answered: the channel was down, went down, or missed
// the deadline.
func (cb *callbackConn) recall(name string) (recallAnswer, error) {
	body, ok, err := cb.send(opRecall, name)
	if err == nil && !ok {
		err = fmt.Errorf("afs: recall of %s: callback channel down", name)
	}
	if err != nil {
		return 0, err
	}
	return decodeRecallAnswer(body)
}

// down reports whether the channel no longer carries breaks.
func (cb *callbackConn) down() bool { return cb.isDown.Load() }

// ack hands the answer numbered seq to its waiting sender.
func (cb *callbackConn) ack(seq uint64, body []byte) {
	cb.mu.Lock()
	reply := cb.waiters[seq]
	delete(cb.waiters, seq)
	cb.mu.Unlock()
	if reply != nil {
		reply <- body
	}
}

// shutdown marks the channel down and wakes every pending sender: its
// holder is gone, or is about to flush its cache on the lost channel.
func (cb *callbackConn) shutdown() {
	cb.mu.Lock()
	waiters := cb.waiters
	cb.waiters = nil
	cb.isDown.Store(true)
	cb.mu.Unlock()
	for _, reply := range waiters {
		close(reply)
	}
}

// session is one RPC connection of a client, the unit a lock is granted
// to: a grant made on a connection dies with it, and a client that
// reconnects gets a new session, which neither inherits nor releases the
// old one's grants.
type session struct {
	clientID string
	conn     net.Conn

	mu         sync.Mutex
	lastAnswer time.Time // when the latest reply began; guarded by mu
	// reclaimed is zero until the session is reclaimed, and then the end
	// of its client's lease: it answers and is granted nothing more, and
	// its locks are granted again only after that. Guarded by mu.
	reclaimed time.Time
}

// answer stamps a reply about to be written, or reports that the session
// was reclaimed and must not answer: a reclaim reads lastAnswer once, so
// no reply may begin after it.
func (sess *session) answer() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if !sess.reclaimed.IsZero() {
		return false
	}
	sess.lastAnswer = time.Now()
	return true
}

// leaseEnd is the time before which the session's locks may not be
// granted again: zero unless it was reclaimed.
func (sess *session) leaseEnd() time.Time {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.reclaimed
}

// errReclaimed answers a lock request of a session reclaimed while it
// waited; the reply is never written.
var errReclaimed = errors.New("afs: session reclaimed")

// lockState implements a FIFO exclusive lock. Ownership is handed to the
// next waiter inside the release critical section, so a lock can never be
// stolen between a release and the waiter waking up.
type lockState struct {
	name    string
	holder  *session // nil when free
	waiters []lockWaiter
	// cb is the holder's callback channel when the grant was made, over
	// which the lock is recalled; nil means the holder has none and
	// releases the lock itself.
	cb *callbackConn
	// grant numbers the grants, so an answer to the recall of an earlier
	// one releases nothing.
	grant     uint64
	recalling bool // a recall of this grant is out
	// notBefore holds the next grant back until a reclaimed holder's
	// lease has run out.
	notBefore time.Time
}

type lockWaiter struct {
	ch   chan struct{}
	sess *session
}

// NewServer creates a server persisting files to store.
func NewServer(store backend.Store) *Server {
	s := &Server{
		store:     store,
		versions:  make(map[string]uint64),
		cachedBy:  make(map[string]map[string]bool),
		callbacks: make(map[string]*callbackConn),
		locks:     make(map[string]*lockState),
		sessions:  make(map[string]map[*session]bool),
		listeners: make(map[net.Listener]bool),
		conns:     make(map[net.Conn]bool),
		logf:      func(string, ...any) {},
	}
	s.metrics.bind(obs.NewRegistry())
	return s
}

// VersionSnapshot copies the per-file version counters. A restart
// harness carries them into a replacement server via SetVersions, the
// way a real AFS fileserver recovers data versions from its vice
// partitions: without this, a restarted server would hand out version
// numbers that alias pre-crash ones and defeat version-based cache
// validation.
func (s *Server) VersionSnapshot() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.versions))
	for name, v := range s.versions {
		out[name] = v
	}
	return out
}

// SetVersions seeds the per-file version counters, typically from a
// previous server's VersionSnapshot. It must be called before Serve.
func (s *Server) SetVersions(versions map[string]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, v := range versions {
		s.versions[name] = v
	}
}

// SetLogger directs server diagnostics to the given function (e.g.
// log.Printf). By default the server is silent.
func (s *Server) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// Stats returns cumulative fetch and store RPC counts (shim over the
// afs_server_fetches_total / afs_server_stores_total counters).
func (s *Server) Stats() (fetches, stores int64) {
	return s.metrics.fetches.Value(), s.metrics.stores.Value()
}

// Serve accepts connections on l until the listener fails or the server
// is closed. It always returns a non-nil error; after Close the error is
// ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.listeners[l] = true
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrClosed
			}
			return fmt.Errorf("afs: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return ErrClosed
		}
		s.conns[conn] = true
		s.handlers.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.handlers.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops all listeners, closes every connection, cancels every
// queued lock request and returns once every connection handler has
// returned: a request being applied finishes first, so VersionSnapshot
// then covers every store the server applied.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.handlers.Wait()
		return nil
	}
	s.closed = true
	for _, ls := range s.locks {
		for _, w := range ls.waiters {
			close(w.ch) // acquire sees it was not granted
		}
		ls.waiters = nil
	}
	listeners := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		listeners = append(listeners, l)
	}
	callbacks := make([]*callbackConn, 0, len(s.callbacks))
	for _, cb := range s.callbacks {
		callbacks = append(callbacks, cb)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, l := range listeners {
		if err := l.Close(); err != nil {
			s.logf("afs: closing listener: %v", err)
		}
	}
	for _, cb := range callbacks {
		_ = cb.conn.Close()
	}
	// Closing accepted connections fails their pending reads, so every
	// handleConn goroutine exits — the chaos suite's goroutine-leak check
	// depends on a Close leaving nothing behind.
	for _, c := range conns {
		_ = c.Close()
	}
	s.handlers.Wait()
	return nil
}

// handleConn serves one client connection. The first frame must be a
// Hello identifying the client and declaring whether this connection is
// the RPC channel or the callback channel.
func (s *Server) handleConn(conn net.Conn) {
	s.metrics.conns.Add(1)
	defer func() {
		_ = conn.Close()
		s.metrics.conns.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	hello, err := readFrame(conn)
	if err != nil {
		return
	}
	if hello.op != opHello {
		s.logf("afs: first frame op=%d, want hello", hello.op)
		return
	}
	r := serial.NewReader(hello.body)
	clientID := r.ReadString(128, "client id")
	isCallback := r.ReadBool("is callback channel")
	if err := r.Finish(); err != nil || clientID == "" {
		s.logf("afs: bad hello: %v", err)
		return
	}

	if isCallback {
		s.runCallbackChannel(clientID, conn, hello.reqID)
		return
	}

	// Acknowledge the hello so the client knows the session is up.
	if err := writeFrame(conn, opReply, hello.reqID, nil); err != nil {
		return
	}
	sess := &session{clientID: clientID, conn: conn}
	s.mu.Lock()
	if s.sessions[clientID] == nil {
		s.sessions[clientID] = make(map[*session]bool)
	}
	s.sessions[clientID][sess] = true
	s.mu.Unlock()
	defer s.clientGone(sess)

	for {
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		s.metrics.requests.Inc()
		start := time.Now()
		op, body := s.dispatch(sess, req)
		s.metrics.requestLat.Record(time.Since(start))
		if op == 0 {
			continue // one-way request: applied in connection order, never answered
		}
		if !sess.answer() {
			return
		}
		if err := writeFrame(conn, op, req.reqID, body); err != nil {
			return
		}
	}
}

// runCallbackChannel registers conn as the client's callback channel and
// hands the answers it carries back until it drops.
func (s *Server) runCallbackChannel(clientID string, conn net.Conn, reqID uint64) {
	cb := &callbackConn{conn: conn, waiters: make(map[uint64]chan []byte)}
	s.mu.Lock()
	if old := s.callbacks[clientID]; old != nil {
		_ = old.conn.Close()
	}
	s.callbacks[clientID] = cb
	s.mu.Unlock()

	if err := writeFrame(conn, opReply, reqID, nil); err == nil {
		for {
			f, err := readFrame(conn)
			if err != nil {
				break
			}
			cb.ack(f.reqID, f.body)
		}
	}
	s.mu.Lock()
	if s.callbacks[clientID] == cb {
		delete(s.callbacks, clientID)
	}
	s.mu.Unlock()
	cb.shutdown()
}

// clientGone releases what a closed session held: its locks, and once the
// client has no session left, its cached-copy registrations.
func (s *Server) clientGone(sess *session) {
	s.mu.Lock()
	delete(s.sessions[sess.clientID], sess)
	if len(s.sessions[sess.clientID]) == 0 {
		delete(s.sessions, sess.clientID)
		for _, holders := range s.cachedBy {
			delete(holders, sess.clientID)
		}
	}
	s.mu.Unlock()
	s.dropSession(sess, sess.leaseEnd())
}

// dropSession releases every lock sess holds, holding each next grant
// back until notBefore, and cancels its queued requests.
func (s *Server) dropSession(sess *session, notBefore time.Time) {
	var recalls []func()
	s.mu.Lock()
	for _, ls := range s.locks {
		kept := ls.waiters[:0]
		for _, w := range ls.waiters {
			if w.sess == sess {
				close(w.ch) // acquire sees it was not granted
			} else {
				kept = append(kept, w)
			}
		}
		ls.waiters = kept
		if ls.holder == sess {
			if notBefore.After(ls.notBefore) {
				ls.notBefore = notBefore
			}
			recalls = append(recalls, s.releaseLocked(ls))
		}
	}
	s.mu.Unlock()
	for _, recall := range recalls {
		recall()
	}
}

// reclaim takes back the locks of sessions whose holder can no longer be
// reached over its callback channel (DESIGN.md §9.3): each session is
// closed, so it answers nothing more and its client can no longer renew
// its lease, and its locks are released, their next grants held back
// until callbackAckTimeout after the last reply the session began. The
// latest such time is returned: by then every lease the client measured
// from a reply of these sessions has run out.
func (s *Server) reclaim(sessions []*session) time.Time {
	var until time.Time
	for _, sess := range sessions {
		sess.mu.Lock()
		sess.reclaimed = sess.lastAnswer.Add(callbackAckTimeout)
		end := sess.reclaimed
		sess.mu.Unlock()
		if end.After(until) {
			until = end
		}
		s.metrics.reclaims.Inc()
		_ = sess.conn.Close()
		s.dropSession(sess, end)
	}
	return until
}

// lockingSessions returns the sessions of clientID holding a lock granted
// while its callback channel was live: one its client may keep.
func (s *Server) lockingSessions(clientID string) []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*session
	for sess := range s.sessions[clientID] {
		for _, ls := range s.locks {
			if ls.holder == sess && ls.cb != nil {
				out = append(out, sess)
				break
			}
		}
	}
	return out
}

// dispatch executes one request and returns the reply frame's op and
// body (nil = empty). Op zero means the request was one-way: no reply.
func (s *Server) dispatch(sess *session, req frame) (opCode, *serial.Writer) {
	clientID := sess.clientID
	fail := func(code errCode, msg string) (opCode, *serial.Writer) {
		return opError, encodeError(code, msg)
	}

	switch req.op {
	case opPing:
		return opReply, nil

	case opFetch:
		name, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		s.metrics.fetches.Inc()
		// The promise covers misses too, so the client can cache the
		// negative result (real AFS gets this from its cached directory
		// contents) and be notified on creation.
		version := s.promise(name, clientID)
		data, err := s.store.Get(name)
		if err != nil {
			return storeError(name, err)
		}
		w := newFrame(12 + len(data))
		w.WriteUint64(version)
		w.WriteBytes(data)
		return opReply, w

	case opStore:
		r := serial.NewReader(req.body)
		name := r.ReadString(0, "name")
		data, err := readData(r, req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		s.metrics.stores.Inc()
		if err := s.store.Put(name, data); err != nil {
			return storeError(name, err)
		}
		version := s.bumpAndInvalidate(name, clientID)
		w := newFrame(8)
		w.WriteUint64(version)
		return opReply, w

	case opRemove:
		name, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		if err := s.store.Delete(name); err != nil {
			return storeError(name, err)
		}
		s.bumpAndInvalidate(name, clientID)
		return opReply, nil

	case opList:
		prefix, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		names, err := s.store.List(prefix)
		if err != nil {
			return fail(errCodeInternal, err.Error())
		}
		w := newFrame(16 * len(names))
		w.WriteUint32(uint32(len(names)))
		for _, n := range names {
			w.WriteString(n)
		}
		return opReply, w

	case opLock:
		// Decode everything before acquiring: a request that is rejected
		// must never leave the lock held.
		name, cached, cachedVersion, err := decodeLockRequest(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		ls, cb, err := s.acquire(name, sess)
		if errors.Is(err, ErrClosed) {
			return 0, nil // the server is closing: the connection drops unanswered
		}
		if err != nil {
			return fail(errCodeInternal, err.Error())
		}
		// The grant is a release-consistency point: every store that
		// returned before it was acknowledged by this client's callback
		// channel, or the server gave up on that channel and says so here.
		lost := cb == nil || cb.down()
		// Revalidate the holder's cached copy under the lock, so its next
		// read of name is current without a fetch.
		version := s.promise(name, clientID)
		if cached && cachedVersion == version {
			return opReply, encodeLockReply(lockUnchanged, lost, 0, nil)
		}
		s.metrics.fetches.Inc()
		data, err := s.store.Get(name)
		switch {
		case err == nil:
			return opReply, encodeLockReply(lockData, lost, version, data)
		case errors.Is(err, backend.ErrNotExist):
			return opReply, encodeLockReply(lockAbsent, lost, 0, nil)
		default:
			s.release(ls, sess) // an error reply means "not acquired" to the client
			return storeError(name, err)
		}

	case opUnlock:
		s.unlock(sess, req.body)
		return 0, nil

	case opStat:
		name, err := decodeName(req.body)
		if err != nil {
			return fail(errCodeBadRequest, err.Error())
		}
		data, err := s.store.Get(name)
		w := newFrame(24)
		if errors.Is(err, backend.ErrNotExist) {
			w.WriteBool(false)
			w.WriteUint64(0)
			w.WriteUint64(0)
			return opReply, w
		}
		if err != nil {
			return storeError(name, err)
		}
		s.mu.Lock()
		version := s.versions[name]
		s.mu.Unlock()
		w.WriteBool(true)
		w.WriteUint64(version)
		w.WriteUint64(uint64(len(data)))
		return opReply, w

	default:
		return fail(errCodeBadRequest, fmt.Sprintf("unknown op %d", req.op))
	}
}

// unlock applies a one-way unlock frame. There is nobody to report a
// bad one to: it is logged and dropped.
func (s *Server) unlock(sess *session, body []byte) {
	name, err := decodeName(body)
	if err != nil {
		s.logf("afs: malformed unlock from %s: %v", sess.clientID, err)
		return
	}
	s.mu.Lock()
	ls := s.locks[name]
	s.mu.Unlock()
	if ls == nil || !s.release(ls, sess) {
		s.logf("afs: %s unlocked %s without holding it", sess.clientID, name)
	}
}

func decodeName(body []byte) (string, error) {
	r := serial.NewReader(body)
	name := r.ReadString(0, "name")
	if err := r.Finish(); err != nil {
		return "", err
	}
	return name, nil
}

func encodeName(name string) *serial.Writer {
	w := newFrame(4 + len(name))
	w.WriteString(name)
	return w
}

// A lock request is name ‖ bool cached ‖ u64 version: the version of the
// copy the client holds in its cache, if it holds one.
func encodeLockRequest(name string, cached bool, version uint64) *serial.Writer {
	w := newFrame(13 + len(name))
	w.WriteString(name)
	w.WriteBool(cached)
	w.WriteUint64(version)
	return w
}

func decodeLockRequest(body []byte) (name string, cached bool, version uint64, err error) {
	r := serial.NewReader(body)
	name = r.ReadString(0, "name")
	cached = r.ReadBool("cached")
	version = r.ReadUint64("cached version")
	return name, cached, version, r.Finish()
}

// lockOutcome is the first byte of a lock reply, less the
// lockCallbackLost bit: what the holder's cache entry for the locked name
// must become.
type lockOutcome uint8

const (
	lockUnchanged lockOutcome = iota + 1 // the cached copy is current: keep it
	lockAbsent                           // the file does not exist: cache that
	lockData                             // version ‖ data follow: replace the copy
)

// lockCallbackLost flags, in the first byte of a lock reply, a client
// with no live callback channel: none registered, or one the server gave
// up on (or shut down) while its holder may not have noticed yet. Breaks
// for stores that completed before this grant may never have reached the
// holder's cache, so it must flush it.
const lockCallbackLost = 0x80

// String names the outcome for the revalidation counters.
func (o lockOutcome) String() string {
	switch o {
	case lockUnchanged:
		return "unchanged"
	case lockAbsent:
		return "absent"
	case lockData:
		return "data"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

func encodeLockReply(outcome lockOutcome, lost bool, version uint64, data []byte) *serial.Writer {
	w := newFrame(13 + len(data))
	first := uint8(outcome)
	if lost {
		first |= lockCallbackLost
	}
	w.WriteUint8(first)
	if outcome == lockData {
		w.WriteUint64(version)
		w.WriteBytes(data)
	}
	return w
}

func decodeLockReply(body []byte) (outcome lockOutcome, lost bool, version uint64, data []byte, err error) {
	r := serial.NewReader(body)
	first := r.ReadUint8("lock outcome")
	outcome, lost = lockOutcome(first&^lockCallbackLost), first&lockCallbackLost != 0
	switch outcome {
	case lockUnchanged, lockAbsent:
	case lockData:
		version = r.ReadUint64("version")
		data, err = readData(r, body)
		return outcome, lost, version, data, err
	default:
		return 0, false, 0, nil, fmt.Errorf("%w: unknown lock outcome %d", ErrProtocol, first)
	}
	return outcome, lost, version, data, r.Finish()
}

func storeError(name string, err error) (opCode, *serial.Writer) {
	code := errCodeInternal
	switch {
	case errors.Is(err, backend.ErrNotExist):
		code = errCodeNotExist
	case errors.Is(err, backend.ErrBadName):
		code = errCodeBadName
	}
	return opError, encodeError(code, name)
}

// promise records that clientID holds a (possibly negative) cached entry
// for name and returns the version that entry is valid for. The version
// is read before the caller reads the file, so a racing store can only
// pair newer data with an older version — which a later revalidation
// treats as changed — never the reverse.
func (s *Server) promise(name, clientID string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.holdLocked(name, clientID)
	return s.versions[name]
}

// holdLocked adds clientID to name's callback holders; s.mu must be held.
func (s *Server) holdLocked(name, clientID string) {
	holders := s.cachedBy[name]
	if holders == nil {
		holders = make(map[string]bool)
		s.cachedBy[name] = holders
	}
	holders[clientID] = true
}

// bumpAndInvalidate increments the file's version and breaks the callback
// promises of every *other* client caching it, returning the new version
// only after each of them has dropped its copy (or lost its callback
// channel, which drops everything). The writer keeps or gains the
// promise: its cache now holds what it wrote (a negative entry after a
// remove).
//
// A holder the server gives up on may still grant itself a lock it keeps
// and read its stale copy under it, until its lease runs out. If it holds
// a lock, its locking sessions are reclaimed and the store returns only
// once that lease is over (DESIGN.md §9.3).
func (s *Server) bumpAndInvalidate(name, writer string) uint64 {
	s.mu.Lock()
	s.versions[name]++
	version := s.versions[name]
	type holder struct {
		clientID string
		cb       *callbackConn
	}
	var notify []holder
	for clientID := range s.cachedBy[name] {
		if clientID == writer {
			continue
		}
		delete(s.cachedBy[name], clientID)
		if cb := s.callbacks[clientID]; cb != nil {
			notify = append(notify, holder{clientID, cb})
		}
	}
	s.holdLocked(name, writer)
	s.mu.Unlock()

	var wg sync.WaitGroup
	for _, h := range notify {
		wg.Add(1)
		go func(h holder) {
			defer wg.Done()
			s.metrics.invalidations.Inc()
			err := h.cb.breakPromise(name)
			if err == nil {
				return
			}
			s.logf("afs: callback delivery failed: %v", err)
			if sessions := s.lockingSessions(h.clientID); len(sessions) > 0 {
				time.Sleep(time.Until(s.reclaim(sessions)))
			}
		}(h)
	}
	wg.Wait()
	return version
}

// acquire blocks until sess holds the exclusive lock on name. It returns
// the callback channel the grant may be recalled over: nil when the
// client has none, and then it releases the lock itself. A lock held by
// another session is recalled from its holder, whose client keeps locks
// it has released (DESIGN.md §9.2); a request from the holding session —
// a kept lock whose lease ran out — is granted again at once. A request
// made or still queued once Close has begun gets ErrClosed.
func (s *Server) acquire(name string, sess *session) (*lockState, *callbackConn, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if !sess.leaseEnd().IsZero() {
		s.mu.Unlock()
		return nil, nil, errReclaimed
	}
	ls := s.locks[name]
	if ls == nil {
		ls = &lockState{name: name}
		s.locks[name] = ls
	}
	var recall func()
	if ls.holder == nil || ls.holder == sess {
		recall = s.grantLocked(ls, sess)
	} else {
		wait := lockWaiter{ch: make(chan struct{}), sess: sess}
		ls.waiters = append(ls.waiters, wait)
		recall = s.recallLocked(ls)
		s.mu.Unlock()
		recall()
		<-wait.ch // ownership was assigned by release before the channel closed
		s.mu.Lock()
		if ls.holder != sess {
			err := errReclaimed
			if s.closed {
				err = ErrClosed // Close cancelled the request
			}
			s.mu.Unlock()
			return nil, nil, err
		}
		recall = func() {} // releaseLocked started the new grant's recall
	}
	cb, hold := ls.cb, time.Until(ls.notBefore)
	s.mu.Unlock()
	recall()
	if hold > 0 {
		time.Sleep(hold)
	}
	return ls, cb, nil
}

// grantLocked makes sess the holder of ls and returns the recall to start
// once s.mu is released (a no-op unless peers are already waiting).
// s.mu must be held.
func (s *Server) grantLocked(ls *lockState, sess *session) func() {
	ls.holder = sess
	ls.grant++
	ls.recalling = false
	ls.cb = nil
	if cb := s.callbacks[sess.clientID]; cb != nil && !cb.down() {
		ls.cb = cb
	}
	return s.recallLocked(ls)
}

// recallLocked returns the recall of ls's current grant to start once s.mu
// is released, or a no-op if none is due: nobody waits, one is already
// out, or the holder has no callback channel and unlocks by itself.
// s.mu must be held.
func (s *Server) recallLocked(ls *lockState) func() {
	if ls.recalling || ls.cb == nil || len(ls.waiters) == 0 {
		return func() {}
	}
	ls.recalling = true
	holder, grant, cb := ls.holder, ls.grant, ls.cb
	return func() { go s.recall(ls, holder, grant, cb) }
}

// recall asks holder's client to give back its grant of ls. Released, the
// lock goes to the next waiter; busy, the client unlocks when done; no
// answer, and the holder is reclaimed.
func (s *Server) recall(ls *lockState, holder *session, grant uint64, cb *callbackConn) {
	s.metrics.recalls.Inc()
	answer, err := cb.recall(ls.name)
	switch {
	case err != nil:
		s.mu.Lock()
		live := s.sessions[holder.clientID][holder]
		s.mu.Unlock()
		if live { // else its connection is gone and clientGone releases it
			s.logf("afs: %v; reclaiming the locks of %s", err, holder.clientID)
			s.reclaim([]*session{holder})
		}
	case answer == recallReleased:
		s.mu.Lock()
		next := func() {}
		if ls.holder == holder && ls.grant == grant {
			next = s.releaseLocked(ls)
		}
		s.mu.Unlock()
		next()
	}
}

// release gives up sess's hold on ls, reporting whether it held it.
func (s *Server) release(ls *lockState, sess *session) bool {
	s.mu.Lock()
	held := ls.holder == sess
	next := func() {}
	if held {
		next = s.releaseLocked(ls)
	}
	s.mu.Unlock()
	next()
	return held
}

// releaseLocked hands the lock to the next waiter, or frees it, and
// returns the recall of the new grant to start once s.mu is released.
// s.mu must be held.
func (s *Server) releaseLocked(ls *lockState) func() {
	if len(ls.waiters) == 0 {
		ls.holder, ls.cb, ls.recalling = nil, nil, false
		return func() {}
	}
	next := ls.waiters[0]
	ls.waiters = ls.waiters[1:]
	recall := s.grantLocked(ls, next.sess)
	close(next.ch)
	return recall
}

// ListenAndServe is a convenience that listens on addr and serves until
// failure. It is used by cmd/nexus-afsd.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("afs: listen %s: %w", addr, err)
	}
	log.Printf("afs: serving on %s", l.Addr())
	return s.Serve(l)
}
