package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// sizes fixes every workload's input size. One block is one pass over a
// workload's fixed input on a freshly set-up stack; a run repeats blocks
// until its time is used, so the per-op counts of a run never depend on
// how fast the machine is.
type sizes struct {
	treeDirs, treeFiles int // tree_create

	scanDirs, scanFiles int // cold_scan

	ioSlots, ioBytes, ioCycles int // file_io

	mixDirs, mixFiles, mixBig, mixOps int // local_mixed

	shareMembers, shareLive, shareRounds, shareFiles int // share_revoke
}

var sizePresets = map[string]sizes{
	"std": {
		treeDirs: 24, treeFiles: 230,
		scanDirs: 60, scanFiles: 620,
		ioSlots: 4, ioBytes: 8 << 20, ioCycles: 8,
		mixDirs: 16, mixFiles: 2000, mixBig: 8, mixOps: 16000,
		shareMembers: 256, shareLive: 4, shareRounds: 40, shareFiles: 4,
	},
	"smoke": {
		treeDirs: 5, treeFiles: 24,
		scanDirs: 4, scanFiles: 16,
		ioSlots: 1, ioBytes: 5 << 20, ioCycles: 1,
		mixDirs: 3, mixFiles: 40, mixBig: 1, mixOps: 300,
		shareMembers: 8, shareLive: 2, shareRounds: 3, shareFiles: 2,
	},
}

// workload is one named closed-loop load. setUp builds a fresh stack and
// everything the timed phase starts from; run issues the block's user
// operations one at a time; verify checks state the operations left
// behind, outside the timed region.
type workload struct {
	name   string
	why    string
	local  bool
	setUp  func(h *harness, s *stack) (any, error)
	run    func(h *harness, s *stack, state any)
	verify func(h *harness, s *stack, state any)
	// plain replays the block's user operations over plainfs on the same
	// kind of link (traced runs only; nil where there is no counterpart).
	plain func(h *harness, state any) (opMs []float64, err error)
}

// acc accumulates what the blocks of one mode (untraced or traced)
// measured.
type acc struct {
	blocks    int
	opMs      [][]float64          // per block, one sample per user op
	classUs   map[string][]float64 // one sample per timed call, by class
	busy      time.Duration        // Σ user-op time
	ops       int64
	userBytes int64 // bytes written plus bytes read by user calls
	counts    tally // Σ over blocks of the timed phase's counter deltas
	stored    int64 // Σ over blocks of bytes held by the storage service at the end
	live      int64 // Σ over blocks of live user bytes at the end
	objects   int64 // objects held by the storage service after the last block
	epcPeak   int64
	heapPeak  uint64
	mallocs   uint64
	gcPause   time.Duration
	revokes   int64 // share_revoke: number of revocations and their wire bytes
	revokeNet int64
}

// harness drives one run of one workload.
type harness struct {
	w      *workload
	sz     sizes
	seed   uint64
	tr     *tracer
	traced bool // this run was asked for per-layer metrics

	cur      *acc      // mode of the block in flight
	plainMs  []float64 // op times of the plainfs reference, once measured
	untraced acc
	tracedA  acc
	setups   []float64 // seconds

	attempted, failed int64
	checks, badChecks int64
	complaints        int

	inOp      bool
	opFailed  bool
	opElapsed time.Duration

	firstCounts *tally // deterministic counts of the first block
	mismatches  int64
}

func newHarness(w *workload, sz sizes, seed uint64, traced bool) *harness {
	h := &harness{w: w, sz: sz, seed: seed, traced: traced, tr: newTracer(false)}
	h.untraced.classUs = make(map[string][]float64)
	h.tracedA.classUs = make(map[string][]float64)
	return h
}

// complain reports the first few verification failures on stderr.
func (h *harness) complain(format string, args ...any) {
	h.complaints++
	if h.complaints <= 10 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", h.w.name, fmt.Sprintf(format, args...))
	}
}

// op groups the calls fn makes into one user operation: one sample of
// op latency, one unit of ops_per_s, one span id in the trace.
func (h *harness) op(fn func()) {
	h.beginOp()
	fn()
	h.endOp()
}

func (h *harness) beginOp() {
	h.inOp, h.opFailed, h.opElapsed = true, false, 0
	h.attempted++
	h.tr.beginOp()
}

func (h *harness) endOp() {
	h.tr.endOp()
	h.inOp = false
	h.cur.ops++
	h.cur.busy += h.opElapsed
	last := len(h.cur.opMs) - 1
	h.cur.opMs[last] = append(h.cur.opMs[last], float64(h.opElapsed)/1e6)
}

// call times one call into the program under test. Outside op it is a
// user operation of its own. A returned error fails the operation.
func (h *harness) call(class string, m *machine, fn func() error) error {
	solo := !h.inOp
	if solo {
		h.beginOp()
	}
	t0 := h.tr.start()
	begin := time.Now()
	err := fn()
	elapsed := time.Since(begin)
	if t0 != 0 {
		h.tr.finish(depthVFS, "vfs."+class, t0)
	}
	h.opElapsed += elapsed
	h.cur.classUs[class] = append(h.cur.classUs[class], float64(elapsed)/1e3)
	if h.tr.on && m != nil {
		if epc := m.nx.Enclave().SGX().HeapEPC(); epc > h.cur.epcPeak {
			h.cur.epcPeak = epc
		}
	}
	if err != nil {
		h.failOp("%s: %v", class, err)
	}
	if solo {
		h.endOp()
	}
	return err
}

// failOp marks the user operation in flight (or the one just finished)
// as failed or wrongly answered; an operation fails at most once.
func (h *harness) failOp(format string, args ...any) {
	h.complain(format, args...)
	if !h.opFailed {
		h.opFailed = true
		h.failed++
	}
}

// expect verifies an operation's answer.
func (h *harness) expect(ok bool, format string, args ...any) {
	if !ok {
		h.failOp(format, args...)
	}
}

// check verifies state outside any operation (durability, canary,
// revocation); each check counts as one attempted item.
func (h *harness) check(ok bool, format string, args ...any) {
	h.checks++
	if !ok {
		h.badChecks++
		h.complain(format, args...)
	}
}

// moved adds user bytes written or read by the operation in flight.
func (h *harness) moved(n int) { h.cur.userBytes += int64(n) }

// block runs one block: set-up (timed as a set-up sample), the timed
// phase, verification and tear-down.
func (h *harness) block(trace bool) error {
	h.tr.on = trace
	h.cur = &h.untraced
	if trace {
		h.cur = &h.tracedA
	}
	s, state, err := h.setUp()
	if err != nil {
		return err
	}
	defer s.close()

	h.cur.opMs = append(h.cur.opMs, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := s.read()
	h.w.run(h, s, state)
	delta := s.read().sub(t0)
	runtime.ReadMemStats(&after)

	a := h.cur
	a.blocks++
	a.counts = a.counts.add(delta)
	a.mallocs += after.Mallocs - before.Mallocs
	a.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if after.HeapInuse > a.heapPeak {
		a.heapPeak = after.HeapInuse
	}
	a.stored += s.mem.TotalBytes()
	a.objects = int64(s.mem.Size())
	h.noteCounts(delta)

	h.w.verify(h, s, state)
	leaks, err := s.canaryLeaks()
	if err != nil {
		return fmt.Errorf("%s canary scan: %w", h.w.name, err)
	}
	h.check(leaks == 0, "%d stored objects contain the plaintext canary", leaks)

	if trace && h.w.plain != nil && h.plainMs == nil {
		if h.plainMs, err = h.w.plain(h, state); err != nil {
			return fmt.Errorf("%s plainfs reference: %w", h.w.name, err)
		}
	}
	return nil
}

// noteCounts compares the block's call counts with the first block's:
// every block replays the same input on a fresh stack, traced or not,
// so they must agree exactly. (Byte counts are left out: share_revoke
// moves ASN.1 signatures whose length varies by a byte or two.)
func (h *harness) noteCounts(delta tally) {
	var det tally
	for _, c := range []counter{cAFSRPCs, cBackendCalls, cOcallGets, cOcallPuts, cOcallLocks, cOcallDeletes, cProofs, cFreshUpdates} {
		det[c] = delta[c]
	}
	if h.firstCounts == nil {
		h.firstCounts = &det
		return
	}
	if det != *h.firstCounts {
		h.mismatches++
		h.complain("block counts differ from the first block's: %v vs %v", det, *h.firstCounts)
	}
}

// measure repeats blocks until about `seconds` of user-operation time
// has been measured, and at least minBlocks of them when any time was
// asked for: the timings are taken across the blocks' replays. A traced run
// alternates untraced and traced blocks so the two can be compared on
// one machine state.
func (h *harness) measure(seconds float64) error {
	const minSetups, minBlocks = 3, 3
	busy := func() float64 { return (h.untraced.busy + h.tracedA.busy).Seconds() }
	for n := 0; ; n++ {
		before := busy()
		if err := h.block(h.traced && n%2 == 1); err != nil {
			return err
		}
		last := busy() - before
		enough := busy() >= seconds-last/2 && (seconds <= 0 || n+1 >= minBlocks)
		if h.traced && n%2 == 0 {
			enough = false // a traced run ends on a traced block
		}
		if enough {
			break
		}
	}
	// The set-up metric is a median; give it at least three samples.
	for len(h.setups) < minSetups {
		s, _, err := h.setUp()
		if err != nil {
			return err
		}
		s.close()
	}
	return nil
}

// setUp builds a fresh stack and the workload's starting state on it,
// and records how long that took as one set-up sample.
func (h *harness) setUp() (*stack, any, error) {
	begin := time.Now()
	s, err := newStack(h.tr, h.w.local)
	if err != nil {
		return nil, nil, err
	}
	state, err := h.w.setUp(h, s)
	if err != nil {
		s.close()
		return nil, nil, fmt.Errorf("%s set-up: %w", h.w.name, err)
	}
	h.setups = append(h.setups, time.Since(begin).Seconds())
	return s, state, nil
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pooled flattens per-block samples.
func pooled(blocks [][]float64) []float64 {
	var all []float64
	for _, b := range blocks {
		all = append(all, b...)
	}
	return all
}

// steady returns, for each user operation of a block, the lower quartile
// of its times across the blocks. Every block replays the same
// operations on a fresh stack, so operation i is the same work each
// time. A machine stall only ever adds time to the replays it hits, so
// the undisturbed cost of the operation sits at the low end of its
// replays; the lower quartile finds it even when a noisy period covered
// most of the run, and still ignores one lucky replay when there are
// five or more.
func steady(blocks [][]float64) []float64 {
	if len(blocks) == 0 {
		return nil
	}
	n := len(blocks[0])
	for _, b := range blocks {
		if len(b) < n {
			n = len(b)
		}
	}
	out := make([]float64, n)
	replays := make([]float64, len(blocks))
	for i := range out {
		for b := range blocks {
			replays[b] = blocks[b][i]
		}
		sort.Float64s(replays)
		out[i] = replays[(len(replays)-1)/4]
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
