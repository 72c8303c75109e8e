package afs

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
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
	versions  map[string]uint64          // per-file version counters; guarded by mu
	cachedBy  map[string]map[string]bool // file -> clientIDs with cached copies; guarded by mu
	callbacks map[string]*callbackConn   // clientID -> callback channel; guarded by mu
	locks     map[string]*lockState      // file -> lock queue; guarded by mu
	listeners map[net.Listener]bool      // guarded by mu
	conns     map[net.Conn]bool          // accepted connections; guarded by mu
	closed    bool                       // guarded by mu

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
	conns         *obs.Gauge   // afs_server_conns
	requestLat    *obs.Histogram
}

func (m *serverMetrics) bind(reg *obs.Registry) {
	m.fetches = reg.Counter("afs_server_fetches_total")
	m.stores = reg.Counter("afs_server_stores_total")
	m.requests = reg.Counter("afs_server_requests_total")
	m.invalidations = reg.Counter("afs_server_invalidations_total")
	m.conns = reg.Gauge("afs_server_conns")
	m.requestLat = reg.Histogram("afs_server_request_seconds")
}

// SetObs rebinds the server's meters onto reg (the nexus-afsd daemon
// shares one registry between the server and its /metrics endpoint).
// Call before Serve; rebinding mid-flight loses in-window counts.
func (s *Server) SetObs(reg *obs.Registry) { s.metrics.bind(reg) }

// callbackAckTimeout bounds how long a store or remove waits for one
// holder to acknowledge a callback break. A holder that misses it loses
// its callback connection, which makes it flush its whole cache.
const callbackAckTimeout = time.Second

// callbackConn is one client's invalidation channel. Every break is a
// numbered opInvalidate frame that the holder acknowledges (an opReply
// with the same number) once it has dropped its cached copy.
type callbackConn struct {
	conn    net.Conn
	mu      sync.Mutex               // serializes frame writes
	seq     uint64                   // number of the last break sent; guarded by mu
	waiters map[uint64]chan struct{} // breaks awaiting their ack, nil once the channel is down; guarded by mu
}

// breakPromise tells the holder to drop its copy of name and waits until
// it has. On a failed write or a missed deadline the server gives up on
// the channel instead: it is closed, and marked down before the break
// returns, so the holder's next lock grant tells it to flush everything
// even if it has not noticed the close yet (lockCallbackLost).
func (cb *callbackConn) breakPromise(name string) error {
	acked := make(chan struct{})
	cb.mu.Lock()
	if cb.waiters == nil {
		cb.mu.Unlock()
		return nil // channel already down; the holder's flush covers this break
	}
	cb.seq++
	cb.waiters[cb.seq] = acked
	_ = cb.conn.SetWriteDeadline(time.Now().Add(callbackAckTimeout))
	err := writeFrame(cb.conn, opInvalidate, cb.seq, encodeName(name))
	cb.mu.Unlock()
	if err == nil {
		deadline := time.NewTimer(callbackAckTimeout)
		defer deadline.Stop()
		select {
		case <-acked: // acknowledged, or the channel went down (see shutdown)
			return nil
		case <-deadline.C:
			err = fmt.Errorf("afs: callback break of %s not acknowledged within %v", name, callbackAckTimeout)
		}
	}
	_ = cb.conn.Close()
	cb.shutdown()
	return err
}

// down reports whether the channel no longer carries breaks.
func (cb *callbackConn) down() bool {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return cb.waiters == nil
}

// ack wakes the break numbered seq.
func (cb *callbackConn) ack(seq uint64) {
	cb.mu.Lock()
	acked := cb.waiters[seq]
	delete(cb.waiters, seq)
	cb.mu.Unlock()
	if acked != nil {
		close(acked)
	}
}

// shutdown marks the channel down and wakes every pending break: its
// holder is gone, or is about to flush its cache on the lost channel.
func (cb *callbackConn) shutdown() {
	cb.mu.Lock()
	waiters := cb.waiters
	cb.waiters = nil
	cb.mu.Unlock()
	for _, acked := range waiters {
		close(acked)
	}
}

// lockState implements a FIFO exclusive lock. Ownership is handed to the
// next waiter inside the release critical section, so a lock can never be
// stolen between a release and the waiter waking up.
type lockState struct {
	holder  string // clientID, "" when free
	waiters []lockWaiter
}

type lockWaiter struct {
	ch       chan struct{}
	clientID string
}

// NewServer creates a server persisting files to store.
func NewServer(store backend.Store) *Server {
	s := &Server{
		store:     store,
		versions:  make(map[string]uint64),
		cachedBy:  make(map[string]map[string]bool),
		callbacks: make(map[string]*callbackConn),
		locks:     make(map[string]*lockState),
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
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Close stops all listeners. In-flight connections terminate as their
// reads fail.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
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
	defer s.clientGone(clientID)

	for {
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		s.metrics.requests.Inc()
		start := time.Now()
		op, body := s.dispatch(clientID, req)
		s.metrics.requestLat.Record(time.Since(start))
		if op == 0 {
			continue // one-way request: applied in connection order, never answered
		}
		if err := writeFrame(conn, op, req.reqID, body); err != nil {
			return
		}
	}
}

// runCallbackChannel registers conn as the client's invalidation channel
// and delivers the acks it carries back until it drops.
func (s *Server) runCallbackChannel(clientID string, conn net.Conn, reqID uint64) {
	cb := &callbackConn{conn: conn, waiters: make(map[uint64]chan struct{})}
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
			cb.ack(f.reqID)
		}
	}
	s.mu.Lock()
	if s.callbacks[clientID] == cb {
		delete(s.callbacks, clientID)
	}
	s.mu.Unlock()
	cb.shutdown()
}

// clientGone releases all state held for a departed client: its locks and
// its cached-copy registrations.
func (s *Server) clientGone(clientID string) {
	s.mu.Lock()
	var toRelease []*lockState
	for _, ls := range s.locks {
		if ls.holder == clientID {
			toRelease = append(toRelease, ls)
		}
	}
	for _, holders := range s.cachedBy {
		delete(holders, clientID)
	}
	s.mu.Unlock()
	for _, ls := range toRelease {
		s.release(ls)
	}
}

// dispatch executes one request and returns the reply frame's op and
// body (nil = empty). Op zero means the request was one-way: no reply.
func (s *Server) dispatch(clientID string, req frame) (opCode, *serial.Writer) {
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
		data := readData(r)
		if err := r.Finish(); err != nil {
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
		ls := s.acquire(name, clientID)
		// The grant is a release-consistency point: every store that
		// returned before it was acknowledged by this client's callback
		// channel, or the server gave up on that channel and says so here.
		lost := s.callbackDown(clientID)
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
			s.release(ls) // an error reply means "not acquired" to the client
			return storeError(name, err)
		}

	case opUnlock:
		s.unlock(clientID, req.body)
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
func (s *Server) unlock(clientID string, body []byte) {
	name, err := decodeName(body)
	if err != nil {
		s.logf("afs: malformed unlock from %s: %v", clientID, err)
		return
	}
	s.mu.Lock()
	ls := s.locks[name]
	held := ls != nil && ls.holder == clientID
	s.mu.Unlock()
	if !held {
		s.logf("afs: %s unlocked %s without holding it", clientID, name)
		return
	}
	s.release(ls)
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

// callbackDown reports whether clientID has no live callback channel.
func (s *Server) callbackDown(clientID string) bool {
	s.mu.Lock()
	cb := s.callbacks[clientID]
	s.mu.Unlock()
	return cb == nil || cb.down()
}

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
		data = readData(r)
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
func (s *Server) bumpAndInvalidate(name, writer string) uint64 {
	s.mu.Lock()
	s.versions[name]++
	version := s.versions[name]
	var notify []*callbackConn
	for clientID := range s.cachedBy[name] {
		if clientID == writer {
			continue
		}
		delete(s.cachedBy[name], clientID)
		if cb := s.callbacks[clientID]; cb != nil {
			notify = append(notify, cb)
		}
	}
	s.holdLocked(name, writer)
	s.mu.Unlock()

	var wg sync.WaitGroup
	for _, cb := range notify {
		wg.Add(1)
		go func(cb *callbackConn) {
			defer wg.Done()
			s.metrics.invalidations.Inc()
			if err := cb.breakPromise(name); err != nil {
				s.logf("afs: callback delivery failed: %v", err)
			}
		}(cb)
	}
	wg.Wait()
	return version
}

// acquire blocks until clientID holds the exclusive lock on name.
func (s *Server) acquire(name, clientID string) *lockState {
	s.mu.Lock()
	ls := s.locks[name]
	if ls == nil {
		ls = &lockState{}
		s.locks[name] = ls
	}
	if ls.holder == "" {
		ls.holder = clientID
		s.mu.Unlock()
		return ls
	}
	wait := lockWaiter{ch: make(chan struct{}), clientID: clientID}
	ls.waiters = append(ls.waiters, wait)
	s.mu.Unlock()

	<-wait.ch // ownership was assigned by release before the channel closed
	return ls
}

// release hands the lock to the next waiter, or frees it.
func (s *Server) release(ls *lockState) {
	s.mu.Lock()
	if len(ls.waiters) > 0 {
		next := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		ls.holder = next.clientID
		s.mu.Unlock()
		close(next.ch)
		return
	}
	ls.holder = ""
	s.mu.Unlock()
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
