package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/obs"
)

// Enclave is a loaded enclave instance: a code identity (measurement)
// bound to a platform, with metered EPC usage and transition accounting.
//
// Trusted code owns the *Enclave handle and keeps its secrets in its own
// state; the handle supplies the SGX services (sealing, quoting, EPC,
// transitions). Everything a real enclave would persist crosses this API
// in sealed or wrapped form only.
type Enclave struct {
	platform    *Platform
	measurement Measurement
	image       Image

	baseEPC int64 // EPC consumed by the loaded image itself

	destroyed atomic.Bool

	mu      sync.Mutex
	heapEPC int64 // dynamic allocations charged via AllocEPC; guarded by mu

	metrics transitionMetrics
}

// transitionMetrics holds the enclave's handles into the obs registry.
// The counters back the benchmark breakdowns ("Enclave Runtime" in
// Tables 5a/5b of the paper); the legacy EcallCount/OcallCount/
// TimeInEnclave accessors are shims over them. See DESIGN.md §11 for
// the metric name taxonomy.
type transitionMetrics struct {
	ecalls *obs.Counter // sgx_ecalls_total
	ocalls *obs.Counter // sgx_ocalls_total
	// timeInEnclaveNs accumulates wall time spent inside ecall bodies,
	// including the simulated transition cost, in nanoseconds. Ocall
	// subtracts the time spent outside, so within an ecall window the
	// value can transiently dip; it is net-increasing per operation.
	timeInEnclaveNs *obs.Counter // sgx_time_in_enclave_ns_total
	ecallLat        *obs.Histogram
	ocallLat        *obs.Histogram
	tracer          *obs.Tracer
}

func (m *transitionMetrics) bind(reg *obs.Registry) {
	m.ecalls = reg.Counter("sgx_ecalls_total")
	m.ocalls = reg.Counter("sgx_ocalls_total")
	m.timeInEnclaveNs = reg.Counter("sgx_time_in_enclave_ns_total")
	m.ecallLat = reg.Histogram("sgx_ecall_seconds")
	m.ocallLat = reg.Histogram("sgx_ocall_seconds")
	m.tracer = reg.Tracer()
}

// SetObs rebinds the enclave's transition accounting onto reg so the
// whole client stack meters into one registry. Call it before the
// enclave starts serving; rebinding mid-flight loses in-window counts.
func (e *Enclave) SetObs(reg *obs.Registry) { e.metrics.bind(reg) }

// CreateEnclave loads an image onto the platform, charging its size
// against the EPC budget.
func (p *Platform) CreateEnclave(img Image) (*Enclave, error) {
	base := int64(len(img.Code))
	if base == 0 {
		base = 1 // even an empty image occupies a page-table entry
	}
	if err := p.allocEPC(base); err != nil {
		return nil, fmt.Errorf("sgx: loading enclave %q: %w", img.Name, err)
	}
	e := &Enclave{
		platform:    p,
		measurement: img.Measure(),
		image:       img,
		baseEPC:     base,
	}
	// Every enclave meters from birth; SetObs swaps in a shared
	// registry when the caller wants one scrape across the stack.
	e.metrics.bind(obs.NewRegistry())
	return e, nil
}

// Measurement returns the enclave's MRENCLAVE value.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Platform returns the platform the enclave runs on.
func (e *Enclave) Platform() *Platform { return e.platform }

// EcallCount and OcallCount report transition totals.
func (e *Enclave) EcallCount() int64 { return e.metrics.ecalls.Value() }

// OcallCount reports the number of ocall transitions.
func (e *Enclave) OcallCount() int64 { return e.metrics.ocalls.Value() }

// TimeInEnclave reports accumulated wall time spent inside ecalls.
func (e *Enclave) TimeInEnclave() time.Duration {
	return time.Duration(e.metrics.timeInEnclaveNs.Value())
}

// Destroy tears the enclave down, releasing its EPC. Real hardware zeroes
// EPC pages on teardown; secrets held by the trusted owner become
// unreachable along with the handle.
func (e *Enclave) Destroy() {
	if e.destroyed.Swap(true) {
		return
	}
	e.mu.Lock()
	heap := e.heapEPC
	e.heapEPC = 0
	e.mu.Unlock()
	e.platform.freeEPC(e.baseEPC + heap)
}

func (e *Enclave) checkAlive() error {
	if e.destroyed.Load() {
		return ErrEnclaveDestroyed
	}
	return nil
}

// Ecall executes fn as an enclave entry: it charges the transition cost,
// counts the crossing, and accounts the time spent inside. All public
// entry points of trusted code should route through Ecall so benchmark
// breakdowns reflect enclave residency.
func (e *Enclave) Ecall(fn func() error) error {
	if err := e.checkAlive(); err != nil {
		return err
	}
	span := e.metrics.tracer.Begin("sgx.ecall")
	start := time.Now()
	e.metrics.ecalls.Inc()
	if c := e.platform.config.TransitionCost; c > 0 {
		spin(c)
	}
	err := fn()
	elapsed := time.Since(start)
	e.metrics.timeInEnclaveNs.Add(int64(elapsed))
	e.metrics.ecallLat.Record(elapsed)
	span.End()
	return err
}

// Ocall executes fn as an exit to untrusted code (e.g. fetching a
// metadata object from the backing store). The transition cost is
// charged, but the time spent outside is *not* attributed to the enclave.
func (e *Enclave) Ocall(fn func() error) error {
	if err := e.checkAlive(); err != nil {
		return err
	}
	span := e.metrics.tracer.Begin("sgx.ocall")
	e.metrics.ocalls.Inc()
	if c := e.platform.config.TransitionCost; c > 0 {
		spin(c)
	}
	outside := time.Now()
	err := fn()
	elapsed := time.Since(outside)
	// Subtract the time spent outside from enclave residency: Ocall is
	// always invoked from within an Ecall body, whose timer is running.
	e.metrics.timeInEnclaveNs.Add(-int64(elapsed))
	e.metrics.ocallLat.Record(elapsed)
	span.End()
	return err
}

// spin busy-waits for roughly d, standing in for the fixed cost of an
// EENTER/EEXIT pair. Sleeping would over-charge at microsecond scales.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) { //nolint:revive // intentional busy-wait
	}
}

// AllocEPC charges n bytes of enclave heap against the platform's EPC
// budget (the enclave-side metadata cache uses this so cache growth is
// subject to the same ~96 MiB limit as the paper's hardware).
func (e *Enclave) AllocEPC(n int64) error {
	if err := e.checkAlive(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("sgx: negative EPC allocation %d", n)
	}
	if err := e.platform.allocEPC(n); err != nil {
		return err
	}
	e.mu.Lock()
	e.heapEPC += n
	e.mu.Unlock()
	return nil
}

// FreeEPC returns n bytes of enclave heap to the platform budget.
func (e *Enclave) FreeEPC(n int64) {
	if n <= 0 || e.destroyed.Load() {
		return
	}
	e.mu.Lock()
	if n > e.heapEPC {
		n = e.heapEPC
	}
	e.heapEPC -= n
	e.mu.Unlock()
	e.platform.freeEPC(n)
}

// HeapEPC returns the enclave's current dynamic EPC usage.
func (e *Enclave) HeapEPC() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.heapEPC
}

// sealVersion tags the sealed-blob format.
const sealVersion = 1

// Seal encrypts data so that it can only be recovered by an enclave with
// the same measurement on the same platform (the MRENCLAVE sealing
// policy). aad is authenticated but not encrypted and must be presented
// again at Unseal.
//
// Format: version(1) ‖ nonce(12) ‖ AES-256-GCM(ciphertext‖tag).
func (e *Enclave) Seal(data, aad []byte) ([]byte, error) {
	if err := e.checkAlive(); err != nil {
		return nil, err
	}
	key := e.platform.sealingKey(e.measurement)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: sealing cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sgx: sealing GCM: %w", err)
	}
	out := make([]byte, 1+gcm.NonceSize(), 1+gcm.NonceSize()+len(data)+gcm.Overhead())
	out[0] = sealVersion
	if _, err := rand.Read(out[1 : 1+gcm.NonceSize()]); err != nil {
		return nil, fmt.Errorf("sgx: sealing nonce: %w", err)
	}
	return gcm.Seal(out, out[1:1+gcm.NonceSize()], data, aad), nil
}

// Unseal reverses Seal. It fails with ErrSealTampered if the blob was
// sealed by a different enclave identity, on a different platform, or has
// been modified.
func (e *Enclave) Unseal(blob, aad []byte) ([]byte, error) {
	if err := e.checkAlive(); err != nil {
		return nil, err
	}
	key := e.platform.sealingKey(e.measurement)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: unsealing cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sgx: unsealing GCM: %w", err)
	}
	if len(blob) < 1+gcm.NonceSize()+gcm.Overhead() {
		return nil, fmt.Errorf("%w: blob too short (%d bytes)", ErrSealTampered, len(blob))
	}
	if blob[0] != sealVersion {
		return nil, fmt.Errorf("%w: unknown seal version %d", ErrSealTampered, blob[0])
	}
	nonce := blob[1 : 1+gcm.NonceSize()]
	pt, err := gcm.Open(nil, nonce, blob[1+gcm.NonceSize():], aad)
	if err != nil {
		return nil, ErrSealTampered
	}
	return pt, nil
}
