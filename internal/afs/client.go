package afs

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/backend"
	"nexus/internal/netsim"
	"nexus/internal/obs"
	"nexus/internal/serial"
	"nexus/internal/uuid"
)

// DefaultCacheBytes is the default client cache budget (AFS cache
// managers default to hundreds of MiB of disk cache; we hold whole files
// in memory).
const DefaultCacheBytes = 512 << 20

// ClientConfig tunes a client.
type ClientConfig struct {
	// Profile simulates the network between client and server.
	Profile netsim.Profile
	// CacheBytes bounds the whole-file cache; 0 means DefaultCacheBytes,
	// negative disables caching entirely.
	CacheBytes int64
	// DisableCallbacks skips the callback channel; the cache then only
	// invalidates on the client's own writes. Used by tests and by the
	// cache-ablation benchmark.
	DisableCallbacks bool
	// RPCTimeout bounds each RPC exchange (including server-side lock
	// waits). 0 means DefaultRPCTimeout; negative disables deadlines.
	RPCTimeout time.Duration
	// Retry tunes automatic reconnect and idempotent-RPC retry; the
	// zero value means defaults.
	Retry RetryPolicy
	// Dial overrides the transport dialer. Tests use it to route
	// connections through a netsim fault injector. Nil means a plain
	// netsim dial with Profile's costs.
	Dial func(addr string) (net.Conn, error)
	// Obs is the observability registry the client meters into
	// (RPC/retry/fault counters, RPC latency, per-op spans). Optional;
	// a private registry is created when nil.
	Obs *obs.Registry
}

// Client is a caching AFS client. It implements backend.Store, so a
// NEXUS volume can be stacked directly on top of it.
//
// Consistency model (matching AFS): whole files are fetched on first
// access and cached; the server records a callback promise and notifies
// the client if another client changes the file, invalidating the cached
// copy — and holds the writer's reply until the client has acknowledged,
// so a completed store is never followed by a stale cached read. Writes
// are write-through. Advisory locks are server-side and exclusive;
// acquiring one revalidates the cached copy of the locked file.
//
// Failure model: every RPC exchange carries a deadline, and the client
// reconnects automatically with seeded exponential backoff. Read-only
// RPCs (fetch/stat/list/ping) are retried transparently across
// reconnects; mutating RPCs are never re-sent — a mid-exchange failure
// surfaces ErrInterrupted because the server may already have applied
// the operation. Every reconnect flushes the whole-file cache, and the
// cache is bypassed the instant the callback channel drops, so lost
// invalidations can never yield stale reads.
type Client struct {
	id      string
	addr    string
	profile netsim.Profile
	dialFn  func(addr string) (net.Conn, error)
	timeout time.Duration
	retry   *retryState
	cbOff   bool

	reqMu sync.Mutex // serializes request/response exchanges and reconnects
	reqID uint64     // guarded by reqMu

	connMu sync.Mutex // guards the live connection pointers
	conn   net.Conn   // guarded by connMu
	cbConn net.Conn   // guarded by connMu

	// gen counts successful connects; it only changes under reqMu but is
	// read lock-free by lock-release closures and the callback loop.
	gen atomic.Uint64
	// cbLost is set when the live callback channel drops, or a lock reply
	// says the server gave up on it: the cache is bypassed and the next
	// RPC made while no lock is held forces a full resync (reconnect +
	// flush).
	cbLost atomic.Bool
	// held counts the locks this client holds. A reconnect would release
	// them on the server, so the resync waits until there are none.
	held atomic.Int64

	cache *fileCache

	closed atomic.Bool
	wg     sync.WaitGroup // callback-loop goroutines

	metrics clientMetrics
}

// clientMetrics holds the client's obs instrument handles. The legacy
// Stats/Reconnects accessors are shims over these counters; metric
// names are catalogued in DESIGN.md §11.
type clientMetrics struct {
	rpcs      *obs.Counter // afs_rpcs_total
	cacheHits *obs.Counter // afs_cache_hits_total
	// retries counts extra RPC attempts after a transport failure
	// (attempt two onward; first attempts are not retries).
	retries *obs.Counter // afs_retries_total
	// transportFaults counts observed transport-level failures: failed
	// dials (main and callback channel) and mid-exchange breaks. With a
	// dial-fault-only injector this equals the injector's fault count
	// exactly; see the chaos suite.
	transportFaults *obs.Counter // afs_transport_faults_total
	reconnects      *obs.Counter // afs_reconnects_total
	// revalidations counts lock replies by what they did to the cached
	// copy of the locked file; index lockOutcome-1.
	revalidations [3]*obs.Counter // afs_lock_revalidations_{unchanged,absent,data}_total
	// oneway counts frames sent without waiting for a reply (unlocks);
	// they are counted in rpcs too.
	oneway *obs.Counter // afs_oneway_frames_total
	rpcLat *obs.Histogram
	tracer *obs.Tracer
}

func (m *clientMetrics) bind(reg *obs.Registry) {
	m.rpcs = reg.Counter("afs_rpcs_total")
	m.cacheHits = reg.Counter("afs_cache_hits_total")
	m.retries = reg.Counter("afs_retries_total")
	m.transportFaults = reg.Counter("afs_transport_faults_total")
	m.reconnects = reg.Counter("afs_reconnects_total")
	for o := lockUnchanged; o <= lockData; o++ {
		m.revalidations[o-1] = reg.Counter("afs_lock_revalidations_" + o.String() + "_total")
	}
	m.oneway = reg.Counter("afs_oneway_frames_total")
	m.rpcLat = reg.Histogram("afs_rpc_seconds")
	m.tracer = reg.Tracer()
}

var _ backend.Store = (*Client)(nil)

// Dial connects to an AFS server at addr, retrying per the config's
// RetryPolicy before giving up with ErrUnavailable.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	c := &Client{
		id:      uuid.New().String(),
		addr:    addr,
		profile: cfg.Profile,
		timeout: cfg.RPCTimeout,
		retry:   newRetryState(cfg.Retry),
		cbOff:   cfg.DisableCallbacks,
		dialFn:  cfg.Dial,
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	c.metrics.bind(cfg.Obs)
	if c.timeout == 0 {
		c.timeout = DefaultRPCTimeout
	}
	if c.dialFn == nil {
		profile := cfg.Profile
		c.dialFn = func(addr string) (net.Conn, error) { return netsim.Dial(addr, profile) }
	}
	if cfg.CacheBytes >= 0 {
		budget := cfg.CacheBytes
		if budget == 0 {
			budget = DefaultCacheBytes
		}
		c.cache = newFileCache(budget)
	}
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if lastErr = c.connectLocked(); lastErr == nil {
			return c, nil
		}
		if attempt >= c.retry.policy.MaxAttempts {
			return nil, fmt.Errorf("afs: dial %s: %w: %w", addr, ErrUnavailable, lastErr)
		}
		time.Sleep(c.retry.wait(attempt))
	}
}

// connectLocked performs one connection attempt: main channel, hello,
// and (when enabled) the callback channel. On success it installs the
// connections, bumps the generation, and flushes the cache — any
// invalidations issued while disconnected were lost with the old
// callback channel.
func (c *Client) connectLocked() error {
	conn, err := c.dialFn(c.addr)
	if err != nil {
		c.metrics.transportFaults.Inc()
		return fmt.Errorf("%w: dialing: %w", errTransport, err)
	}
	if err := c.hello(conn, false); err != nil {
		_ = conn.Close()
		if errors.Is(err, errTransport) {
			c.metrics.transportFaults.Inc()
		}
		return err
	}
	var cbConn net.Conn
	if !c.cbOff && c.cache != nil {
		cbConn, err = c.dialFn(c.addr)
		if err != nil {
			_ = conn.Close()
			c.metrics.transportFaults.Inc()
			return fmt.Errorf("%w: dialing callback channel: %w", errTransport, err)
		}
		if err := c.hello(cbConn, true); err != nil {
			_ = conn.Close()
			_ = cbConn.Close()
			if errors.Is(err, errTransport) {
				c.metrics.transportFaults.Inc()
			}
			return err
		}
	}
	c.connMu.Lock()
	c.conn = conn
	c.cbConn = cbConn
	c.connMu.Unlock()
	if c.gen.Add(1) > 1 {
		c.metrics.reconnects.Inc()
	}
	c.cbLost.Store(false)
	if c.cache != nil {
		c.cache.flush()
	}
	if cbConn != nil {
		c.wg.Add(1)
		go c.callbackLoop(cbConn)
	}
	return nil
}

// dropConnLocked discards the live connections; the next RPC redials.
func (c *Client) dropConnLocked() {
	c.connMu.Lock()
	conn, cbConn := c.conn, c.cbConn
	c.conn, c.cbConn = nil, nil
	c.connMu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	if cbConn != nil {
		_ = cbConn.Close()
	}
}

// currentConn returns the live RPC connection, or nil.
func (c *Client) currentConn() net.Conn {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn
}

func (c *Client) hello(conn net.Conn, isCallback bool) error {
	if c.timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	w := newFrame(64)
	w.WriteString(c.id)
	w.WriteBool(isCallback)
	if err := writeFrame(conn, opHello, 0, w); err != nil {
		return transportFault("hello handshake", err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		return transportFault("hello handshake", err)
	}
	if resp.op != opReply {
		return fmt.Errorf("%w: %w: hello rejected", errTransport, ErrProtocol)
	}
	return nil
}

// callbackLoop consumes invalidation frames until the channel drops,
// acknowledging each one after the cached copy is gone: the server holds
// the writer's reply until then, so once a peer's store has returned this
// client no longer serves the old bytes. If the channel drops while still
// the live one (server crash, network fault, a malformed or unackable
// break), the cache is flushed and flagged so no stale entry is ever
// served.
func (c *Client) callbackLoop(conn net.Conn) {
	defer c.wg.Done()
	for {
		f, err := readFrame(conn)
		if err != nil {
			break
		}
		if f.op != opInvalidate {
			continue
		}
		name, err := decodeName(f.body)
		if err != nil {
			break
		}
		if c.cache != nil {
			c.cache.invalidate(name)
		}
		if c.timeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(c.timeout))
		}
		if err := writeFrame(conn, opReply, f.reqID, nil); err != nil {
			break
		}
	}
	if c.closed.Load() {
		return
	}
	c.connMu.Lock()
	current := c.cbConn == conn
	c.connMu.Unlock()
	if current {
		// Invalidations may have been lost: stop serving cached entries
		// (readers check cbLost before the cache) and force the next RPC
		// to resync via a full reconnect.
		c.cbLost.Store(true)
		if c.cache != nil {
			c.cache.flush()
		}
	}
}

// Close terminates the client's connections.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.connMu.Lock()
	conn, cbConn := c.conn, c.cbConn
	c.conn, c.cbConn = nil, nil
	c.connMu.Unlock()
	var err error
	if conn != nil {
		closeWrite(conn)
		err = conn.Close()
	}
	if cbConn != nil {
		_ = cbConn.Close()
	}
	c.wg.Wait()
	return err
}

// transportFault wraps a connection-level failure, mapping deadline
// misses to ErrTimeout.
func transportFault(stage string, err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return fmt.Errorf("%w: %s: %w", errTransport, stage, ErrTimeout)
	}
	return fmt.Errorf("%w: %s: %w", errTransport, stage, err)
}

// call performs one RPC, reconnecting and retrying per the client's
// policy. Transport failures surface as typed errors: ErrUnavailable
// when the request was never accepted, ErrInterrupted when a mutating
// RPC died mid-exchange (outcome unknown), with ErrTimeout in the chain
// when a deadline was missed.
func (c *Client) call(op opCode, body *serial.Writer) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	span, start := c.beginRPC(op)
	resp, retries, faults, err := c.callAttempts(op, func(w io.Writer, reqID uint64) error {
		return writeFrame(w, op, reqID, body)
	})
	c.endRPC(span, start, retries, faults, err)
	return resp, err
}

// beginRPC opens the span and latency observation of one logical RPC.
// Both cover reconnects, retries and backoff, because that is the
// latency the layer above experiences. The span name is only
// materialized when tracing is on, keeping the disabled path
// allocation-free.
func (c *Client) beginRPC(op opCode) (*obs.Span, time.Time) {
	var span *obs.Span
	if c.metrics.tracer.Enabled() {
		span = c.metrics.tracer.Begin("afs." + op.String())
	}
	return span, time.Now()
}

// endRPC closes what beginRPC opened.
func (c *Client) endRPC(span *obs.Span, start time.Time, retries, faults int64, err error) {
	c.metrics.rpcLat.Record(time.Since(start))
	if retries > 0 {
		span.SetTagInt("retries", retries)
	}
	if faults > 0 {
		span.SetTagInt("faults", faults)
	}
	if err != nil {
		span.SetTag("error", errClass(err))
	}
	span.End()
}

// errClass names an RPC failure for span tags.
func errClass(err error) string {
	switch {
	case errors.Is(err, ErrInterrupted):
		return "interrupted"
	case errors.Is(err, ErrUnavailable):
		return "unavailable"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, backend.ErrNotExist):
		return "not-exist"
	default:
		return "error"
	}
}

// callAttempts runs the reconnect/retry loop for one RPC, reporting how
// many extra attempts and observed transport faults it took. write puts
// the request frame on the connection: writeFrame for an assembled body,
// writeFrameScatter for a streamed one. A dial-level failure is retried
// for every op (write has not run, so a stream's producer is untouched);
// once write has run, only retryable ops are sent again.
func (c *Client) callAttempts(op opCode, write func(w io.Writer, reqID uint64) error) (resp []byte, retries, faults int64, err error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if c.closed.Load() {
			return nil, retries, faults, ErrClosed
		}
		if attempt > 1 {
			retries++
			c.metrics.retries.Inc()
		}
		if err := c.ensureConnLocked(); err != nil {
			// Dial-level failure: nothing was sent, safe to retry for
			// every op. (connectLocked already counted the fault.)
			faults++
			lastErr = err
		} else {
			resp, err := c.exchangeLocked(write)
			if err == nil || !errors.Is(err, errTransport) {
				return resp, retries, faults, err
			}
			c.metrics.transportFaults.Inc()
			faults++
			c.dropConnLocked()
			if !retryable(op) {
				return nil, retries, faults, fmt.Errorf("afs: %s: %w: %w", op, ErrInterrupted, err)
			}
			lastErr = err
		}
		if attempt >= c.retry.policy.MaxAttempts {
			return nil, retries, faults, fmt.Errorf("afs: %s: %w: %w", op, ErrUnavailable, lastErr)
		}
		time.Sleep(c.retry.wait(attempt))
		if c.closed.Load() {
			return nil, retries, faults, ErrClosed
		}
	}
}

// ensureConnLocked makes sure a healthy connection is installed,
// resyncing first if the callback channel was lost and no lock is held.
func (c *Client) ensureConnLocked() error {
	if c.cbLost.Load() && c.held.Load() == 0 {
		c.dropConnLocked()
	}
	if c.currentConn() != nil {
		return nil
	}
	return c.connectLocked()
}

// exchangeLocked sends one request and reads its response on the live
// connection, under the RPC deadline. Errors wrapping errTransport mean
// the connection is no longer usable.
func (c *Client) exchangeLocked(write func(w io.Writer, reqID uint64) error) ([]byte, error) {
	conn := c.currentConn()
	c.reqID++
	id := c.reqID
	c.metrics.rpcs.Inc()
	if c.timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.timeout))
		defer func() { _ = conn.SetDeadline(time.Time{}) }()
	}
	if err := write(conn, id); err != nil {
		if errors.Is(err, errProducer) {
			// The frame never completed, so the server applies nothing —
			// but the connection is mid-frame and has to go. The
			// transport did not fail: no fault, no ErrInterrupted.
			c.dropConnLocked()
			return nil, err
		}
		return nil, transportFault("writing request", err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		return nil, transportFault("reading response", err)
	}
	if resp.reqID != id {
		return nil, fmt.Errorf("%w: %w: response id %d for request %d", errTransport, ErrProtocol, resp.reqID, id)
	}
	switch resp.op {
	case opReply:
		return resp.body, nil
	case opError:
		return nil, decodeError(resp.body)
	default:
		return nil, fmt.Errorf("%w: %w: unexpected op %d", errTransport, ErrProtocol, resp.op)
	}
}

// Get implements backend.Store: it returns the file contents, from cache
// when the callback promise is intact. Negative results are cached too:
// the server promises to break the callback when the file appears.
func (c *Client) Get(name string) ([]byte, error) {
	data, _, err := c.GetVersioned(name)
	return data, err
}

// Put implements backend.Store with write-through semantics.
func (c *Client) Put(name string, data []byte) error {
	_, err := c.PutVersioned(name, data)
	return err
}

// Delete implements backend.Store. The deletion is remembered as a
// negative cache entry.
func (c *Client) Delete(name string) error {
	_, err := c.call(opRemove, encodeName(name))
	if c.cache != nil {
		if err == nil {
			c.cache.putNegative(name)
		} else {
			c.cache.invalidate(name)
		}
	}
	return err
}

// List implements backend.Store.
func (c *Client) List(prefix string) ([]string, error) {
	body, err := c.call(opList, encodeName(prefix))
	if err != nil {
		return nil, err
	}
	r := serial.NewReader(body)
	n := r.ReadCount(0, "name count")
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, r.ReadString(0, "name"))
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return names, nil
}

// Lock implements backend.Store: a server-side exclusive advisory lock,
// the analogue of flock() on an AFS file. A locked read-modify-write must
// observe the latest contents (AFS revalidates with the server on open),
// so the request carries the version of the cached copy and the reply,
// built once the lock is held, says what the cache entry must become:
// kept, replaced by the data that rides along, or turned negative. The
// read that follows is a cache hit and still current.
//
// The grant is also a release-consistency point for every other cached
// file: a store that returned before it was acknowledged by this client,
// unless the server gave up on its callback channel — which the reply
// flags, and the cache is flushed and bypassed before Lock returns.
//
// A lock does not survive reconnect: the server releases it when the
// holding connection drops, so the release closure sends its unlock
// frame only while the acquiring connection generation is still live.
func (c *Client) Lock(name string) (func(), error) {
	version, cached := c.cachedVersion(name)
	body, err := c.call(opLock, encodeLockRequest(name, cached, version))
	if err != nil {
		return nil, err
	}
	gen := c.gen.Load()
	outcome, lost, version, data, err := decodeLockReply(body)
	if err != nil {
		c.unlock(name, gen)
		return nil, err
	}
	c.metrics.revalidations[outcome-1].Inc()
	if c.cache != nil {
		switch {
		case lost && !c.cbOff:
			c.cbLost.Store(true)
			c.cache.flush()
		case outcome == lockAbsent:
			c.cache.putNegative(name)
		case outcome == lockData:
			c.cache.putOwned(name, data, version)
		}
	}
	c.held.Add(1)
	released := false
	return func() {
		if !released {
			released = true
			c.held.Add(-1)
			c.unlock(name, gen)
		}
	}, nil
}

// cachedVersion reports the version of the cached copy of name a lock
// request may offer for revalidation: none while the callback channel is
// down, since the cache is about to be flushed.
func (c *Client) cachedVersion(name string) (uint64, bool) {
	if c.cache == nil || c.cbLost.Load() {
		return 0, false
	}
	return c.cache.version(name)
}

// unlock releases a lock taken on connection generation gen with a
// one-way frame: the server applies it in connection order (so a later
// lock on this connection queues behind it) and sends no reply. If that
// connection is gone, or the write fails and takes it down, the server
// has released or will release the lease on disconnect.
func (c *Client) unlock(name string, gen uint64) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	conn := c.currentConn()
	if conn == nil || c.gen.Load() != gen {
		return
	}
	span, start := c.beginRPC(opUnlock)
	c.reqID++
	c.metrics.rpcs.Inc()
	c.metrics.oneway.Inc()
	if c.timeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(c.timeout))
		defer func() { _ = conn.SetWriteDeadline(time.Time{}) }()
	}
	var faults int64
	err := writeFrame(conn, opUnlock, c.reqID, encodeName(name))
	if err != nil {
		err = transportFault("writing unlock", err)
		c.metrics.transportFaults.Inc()
		faults = 1
		c.dropConnLocked()
	}
	c.endRPC(span, start, 0, faults, err)
}

// GetVersioned returns a file's contents and version, serving warm reads
// from the cache. It lets the NEXUS enclave validate its in-enclave
// decrypted-metadata cache against the same version stream that AFS
// callbacks keep fresh. The cache is bypassed while the callback channel
// is down, so a lost invalidation can never produce a stale read.
func (c *Client) GetVersioned(name string) ([]byte, uint64, error) {
	if c.cache != nil && !c.cbLost.Load() {
		data, negative, version, ok := c.cache.lookup(name)
		if ok {
			c.metrics.cacheHits.Inc()
			return data, version, nil
		}
		if negative {
			c.metrics.cacheHits.Inc()
			return nil, 0, fmt.Errorf("afs: %s (cached): %w", name, backend.ErrNotExist)
		}
	}
	// A reply that crosses a callback break on the wire may predate the
	// store the break announced, and the break has already used up this
	// client's promise: such a reply is returned but not cached.
	var breaks uint64
	if c.cache != nil {
		breaks = c.cache.breakCount()
	}
	body, err := c.call(opFetch, encodeName(name))
	if err != nil {
		if c.cache != nil && errors.Is(err, backend.ErrNotExist) {
			c.cache.fillNegative(breaks, name)
		}
		return nil, 0, err
	}
	r := serial.NewReader(body)
	version := r.ReadUint64("version")
	data := r.ReadBytes(maxFrameSize, "data")
	if err := r.Finish(); err != nil {
		return nil, 0, err
	}
	if c.cache != nil {
		c.cache.fill(breaks, name, data, version)
	}
	return data, version, nil
}

// PutVersioned stores a file and returns its new version.
func (c *Client) PutVersioned(name string, data []byte) (uint64, error) {
	w := newFrame(8 + len(name) + len(data))
	w.WriteString(name)
	w.WriteBytes(data)
	body, err := c.call(opStore, w)
	version, err := c.storeReply(name, body, err)
	if err == nil && c.cache != nil {
		c.cache.put(name, data, version)
	}
	return version, err
}

// storeReply decodes the reply of a store exchange into the file's new
// version. On failure the store may or may not have been applied; the
// cached copy is no longer trustworthy either way.
func (c *Client) storeReply(name string, body []byte, err error) (uint64, error) {
	var version uint64
	if err == nil {
		r := serial.NewReader(body)
		version = r.ReadUint64("version")
		err = r.Finish()
	}
	if err != nil {
		if c.cache != nil {
			c.cache.invalidate(name)
		}
		return 0, err
	}
	return version, nil
}

// PutVersionedStream stores a file whose contents are produced
// incrementally: next returns consecutive body segments (nil = done)
// summing to exactly total bytes. The segments go out as soon as they
// exist, so upstream production — the enclave sealing chunks — overlaps
// the transfer; on the wire the server still sees one ordinary store
// frame, applied atomically. Segment buffers belong to the producer and
// may be reused after each call, so the write-through cache accumulates
// its own copy as the segments pass by.
//
// Failure semantics match PutVersioned: a store is never re-sent, and a
// mid-exchange transport failure surfaces ErrInterrupted. A producer
// error aborts the frame — the connection is dropped, the server's
// frame read fails, and nothing is applied.
func (c *Client) PutVersionedStream(name string, total int, next func() ([]byte, error)) (uint64, error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	// The store body is name ‖ u32 length ‖ data; the data bytes arrive
	// as scattered segments after this prefix.
	prefix := newFrame(8 + len(name))
	prefix.WriteString(name)
	prefix.WriteUint32(uint32(total))
	var acc []byte
	if c.cache != nil {
		acc = make([]byte, 0, total)
		produce := next
		next = func() ([]byte, error) {
			seg, err := produce()
			acc = append(acc, seg...)
			return seg, err
		}
	}
	span, start := c.beginRPC(opStore)
	span.SetTagInt("streamed", 1)
	body, retries, faults, err := c.callAttempts(opStore, func(w io.Writer, reqID uint64) error {
		return writeFrameScatter(w, opStore, reqID, prefix, total, next)
	})
	c.endRPC(span, start, retries, faults, err)
	version, err := c.storeReply(name, body, err)
	if err == nil && c.cache != nil {
		c.cache.putOwned(name, acc, version)
	}
	return version, err
}

// Stat describes a remote file.
type Stat struct {
	Exists  bool
	Version uint64
	Size    uint64
}

// StatFile queries a file's existence, version and size without
// transferring its contents.
func (c *Client) StatFile(name string) (Stat, error) {
	body, err := c.call(opStat, encodeName(name))
	if err != nil {
		return Stat{}, err
	}
	r := serial.NewReader(body)
	st := Stat{
		Exists:  r.ReadBool("exists"),
		Version: r.ReadUint64("version"),
		Size:    r.ReadUint64("size"),
	}
	if err := r.Finish(); err != nil {
		return Stat{}, err
	}
	return st, nil
}

// Ping round-trips an empty frame, measuring liveness and RTT.
func (c *Client) Ping() error {
	_, err := c.call(opPing, nil)
	return err
}

// FlushCache drops all cached file copies, forcing the next reads to hit
// the server (the evaluation flushes the AFS cache between runs).
func (c *Client) FlushCache() {
	if c.cache != nil {
		c.cache.flush()
	}
}

// Stats reports cumulative RPCs issued and cache hits served (shim
// over the afs_rpcs_total / afs_cache_hits_total registry counters).
// One-way frames (unlocks) count as RPCs: they reach the storage service
// like any other request, they just are not answered.
func (c *Client) Stats() (rpcs, cacheHits int64) {
	return c.metrics.rpcs.Value(), c.metrics.cacheHits.Value()
}

// Reconnects reports how many times the client re-established its
// connection after the initial dial.
func (c *Client) Reconnects() int64 {
	g := int64(c.gen.Load())
	if g <= 0 {
		return 0
	}
	return g - 1
}

// fileCache is a byte-budgeted LRU of whole files.
type fileCache struct {
	mu     sync.Mutex
	budget int64
	used   int64                    // guarded by mu
	breaks uint64                   // invalidations and flushes so far; guarded by mu
	lru    *list.List               // of *cacheEntry, front = most recent; guarded by mu
	byName map[string]*list.Element // guarded by mu
}

type cacheEntry struct {
	name    string
	data    []byte
	version uint64
	// negative marks a cached does-not-exist result, valid under the
	// same callback promise as positive entries (the server notifies on
	// creation).
	negative bool
}

func newFileCache(budget int64) *fileCache {
	return &fileCache{
		budget: budget,
		lru:    list.New(),
		byName: make(map[string]*list.Element),
	}
}

// lookup returns (data, negative, version, found).
func (fc *fileCache) lookup(name string) ([]byte, bool, uint64, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	el, ok := fc.byName[name]
	if !ok {
		return nil, false, 0, false
	}
	fc.lru.MoveToFront(el)
	entry := el.Value.(*cacheEntry)
	if entry.negative {
		return nil, true, 0, false
	}
	out := make([]byte, len(entry.data))
	copy(out, entry.data)
	return out, false, entry.version, true
}

// version returns the version of the cached copy of name, if there is a
// positive one, without touching the LRU order.
func (fc *fileCache) version(name string) (uint64, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	el, ok := fc.byName[name]
	if !ok || el.Value.(*cacheEntry).negative {
		return 0, false
	}
	return el.Value.(*cacheEntry).version, true
}

// breakCount returns how many invalidations and flushes the cache has
// seen; a fetch samples it before going to the server and hands it to
// fill or fillNegative with the reply.
func (fc *fileCache) breakCount() uint64 {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.breaks
}

// fill caches a fetched copy unless an invalidation or flush has arrived
// since the fetch sampled breakCount.
func (fc *fileCache) fill(since uint64, name string, data []byte, version uint64) {
	cp := make([]byte, len(data))
	copy(cp, data)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.breaks == since {
		fc.putOwnedLocked(name, cp, version)
	}
}

// fillNegative is fill for a fetched does-not-exist result.
func (fc *fileCache) fillNegative(since uint64, name string) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.breaks == since {
		fc.putNegativeLocked(name)
	}
}

// putNegative caches a does-not-exist result.
func (fc *fileCache) putNegative(name string) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.putNegativeLocked(name)
}

// putNegativeLocked must be called with fc.mu held.
func (fc *fileCache) putNegativeLocked(name string) {
	if el, ok := fc.byName[name]; ok {
		fc.removeElementLocked(el)
	}
	el := fc.lru.PushFront(&cacheEntry{name: name, negative: true})
	fc.byName[name] = el
}

func (fc *fileCache) put(name string, data []byte, version uint64) {
	cp := make([]byte, len(data))
	copy(cp, data)
	fc.putOwned(name, cp, version)
}

// putOwned is put for a buffer the cache takes ownership of, skipping
// the defensive copy. The streaming put accumulates its own copy
// segment by segment, so a second copy here would be pure waste.
func (fc *fileCache) putOwned(name string, data []byte, version uint64) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.putOwnedLocked(name, data, version)
}

// putOwnedLocked must be called with fc.mu held.
func (fc *fileCache) putOwnedLocked(name string, data []byte, version uint64) {
	if int64(len(data)) > fc.budget {
		return // larger than the whole cache; do not thrash
	}
	if el, ok := fc.byName[name]; ok {
		entry := el.Value.(*cacheEntry)
		fc.used += int64(len(data)) - int64(len(entry.data))
		entry.data = data
		entry.version = version
		entry.negative = false
		fc.lru.MoveToFront(el)
	} else {
		el := fc.lru.PushFront(&cacheEntry{name: name, data: data, version: version})
		fc.byName[name] = el
		fc.used += int64(len(data))
	}
	for fc.used > fc.budget {
		oldest := fc.lru.Back()
		if oldest == nil {
			break
		}
		fc.removeElementLocked(oldest)
	}
}

func (fc *fileCache) invalidate(name string) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.breaks++
	if el, ok := fc.byName[name]; ok {
		fc.removeElementLocked(el)
	}
}

func (fc *fileCache) flush() {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.breaks++
	fc.lru.Init()
	fc.byName = make(map[string]*list.Element)
	fc.used = 0
}

// removeElementLocked must be called with fc.mu held.
func (fc *fileCache) removeElementLocked(el *list.Element) {
	entry := el.Value.(*cacheEntry)
	fc.lru.Remove(el)
	delete(fc.byName, entry.name)
	fc.used -= int64(len(entry.data))
}
