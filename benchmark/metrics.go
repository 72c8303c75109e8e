package main

import (
	"math"
	"time"
)

// metricDef declares one metric: BENCHMARK.json lists the same names,
// units and directions, and bench_test.go keeps the two from drifting.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndDefs are the metrics a user of the system would see. Every
// workload reports every one of them. A user operation is one call into
// the filesystem, except on file_io (one write + cold read + edit cycle
// of a large file) and share_revoke (one membership round: join, mount,
// read, revoke, denied mount, survivor's read).
//
// The three timings are computed from steady op times (see steady): the
// time of each operation of the block, taken as the lower quartile of
// the blocks that replayed it. ops_per_s is the block's operations over the
// sum of those times, op_p50_ms their median and op_tail_ms their 95th
// percentile — the operations that are slow by construction (drains,
// bucket splits, cold loads), not the ones a machine stall happened to
// hit.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"store_rpcs_per_op", "count", "lower", 0.03},
	{"wire_bytes_per_user_byte", "count", "lower", 0.03},
	{"stored_bytes_per_user_byte", "count", "lower", 0.03},
}

// callClasses are the kinds of timed call, each reported as a median.
var callClasses = []string{
	"mkdir", "write_file", "read_file", "stat", "readdir", "rename", "remove",
	"open_sync", "sync", "write_big", "read_big", "edit_big",
	"mount", "join", "revoke", "mount_denied",
}

// perLayerDefs are the metrics of single layers, measured from outside
// each layer in the traced run. Times and totals are per block (one
// pass over the workload's fixed input), so runs of different length
// compare.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{{"vfs.busy_s", "s", "lower", 0}}
	for _, class := range callClasses {
		defs = append(defs, metricDef{"vfs." + class + "_p50_us", "us", "lower", 0})
	}
	return append(defs, []metricDef{
		{"vfs.revoke_wire_bytes", "bytes", "lower", 0},
		{"sgx.ecalls_per_op", "count", "lower", 0},
		{"sgx.ocalls_per_op", "count", "lower", 0},
		{"sgx.time_in_enclave_s", "s", "lower", 0},
		{"sgx.transition_s", "s", "lower", 0},
		{"sgx.epc_peak_bytes", "bytes", "lower", 0},
		{"sgx.ecall_empty_ns", "ns", "lower", 0},
		{"sgx.quote_verify_us", "us", "lower", 0},
		{"enclave.self_s", "s", "lower", 0},
		{"enclave.metadata_loads_per_op", "count", "lower", 0},
		{"enclave.cache_hit_ratio", "ratio", "higher", 0},
		{"enclave.metadata_flushes_per_op", "count", "lower", 0},
		{"enclave.metadata_bytes_written", "bytes", "lower", 0},
		{"enclave.data_bytes_written", "bytes", "lower", 0},
		{"enclave.chunk_pool_hit_ratio", "ratio", "higher", 0},
		{"metadata.seal_4k_us", "us", "lower", 0},
		{"metadata.open_4k_us", "us", "lower", 0},
		{"metadata.encrypt_8m_w1_MBps", "MB/s", "higher", 0},
		{"metadata.encrypt_8m_wN_MBps", "MB/s", "higher", 0},
		{"metadata.decrypt_8m_w1_MBps", "MB/s", "higher", 0},
		{"metadata.decrypt_8m_wN_MBps", "MB/s", "higher", 0},
		{"gcmsiv.wrap_32b_ns", "ns", "lower", 0},
		{"groupkey.revoke_256_us", "us", "lower", 0},
		{"groupkey.wraps_per_revoke", "count", "lower", 0},
		{"merkle.prove_us", "us", "lower", 0},
		{"merkle.verify_us", "us", "lower", 0},
		{"merkle.encode_tree_us", "us", "lower", 0},
		{"freshness.proofs_per_op", "count", "lower", 0},
		{"freshness.proof_bytes_per_op", "bytes", "lower", 0},
		{"freshness.proof_busy_s", "s", "lower", 0},
		{"freshness.updates", "count", "lower", 0},
		{"freshness.update_busy_s", "s", "lower", 0},
		{"freshness.self_s", "s", "lower", 0},
		{"freshness.tree_put_bytes", "bytes", "lower", 0},
		{"store.calls_per_op", "count", "lower", 0},
		{"store.get_per_op", "count", "lower", 0},
		{"store.put_per_op", "count", "lower", 0},
		{"store.lock_per_op", "count", "lower", 0},
		{"store.delete_per_op", "count", "lower", 0},
		{"store.busy_s", "s", "lower", 0},
		{"store.self_s", "s", "lower", 0},
		{"store.up_bytes", "bytes", "lower", 0},
		{"store.down_bytes", "bytes", "lower", 0},
		{"afs.rpcs_per_op", "count", "lower", 0},
		{"afs.cache_hit_ratio", "ratio", "higher", 0},
		{"afs.busy_s", "s", "lower", 0},
		{"afs.self_s", "s", "lower", 0},
		{"afs.server_fetches", "count", "lower", 0},
		{"afs.server_stores", "count", "lower", 0},
		{"afs.reconnects", "count", "lower", 0},
		{"netsim.writes", "count", "lower", 0},
		{"netsim.wire_s", "s", "lower", 0},
		{"netsim.model_s", "s", "lower", 0},
		{"netsim.overshoot_frac", "ratio", "lower", 0},
		{"backend.calls", "count", "lower", 0},
		{"backend.busy_s", "s", "lower", 0},
		{"backend.total_bytes", "bytes", "lower", 0},
		{"plainfs.op_p50_ms", "ms", "lower", 0},
		{"plainfs.overhead_x", "ratio", "lower", 0},
		{"proc.heap_peak_MB", "MB", "lower", 0},
		{"proc.allocs_per_op", "count", "lower", 0},
		{"proc.gc_pause_ms", "ms", "lower", 0},
		{"trace.overhead_frac", "ratio", "lower", 0},
		{"trace.self_sum_frac", "ratio", "higher", 0},
		{"trace.orphan_s", "s", "lower", 0},
		{"trace.count_mismatches", "count", "lower", 0},
	}...)
}()

// reading is one measured value and, where it summarises samples, how
// many.
type reading struct {
	value float64
	n     int
}

// endToEnd computes the end-to-end metrics from the untraced blocks.
func (h *harness) endToEnd() map[string]reading {
	a := &h.untraced
	ops, opMs := float64(a.ops), steady(a.opMs)
	wire := float64(a.counts[cBackendUp] + a.counts[cBackendDown])
	rpcs := a.counts[cAFSRPCs]
	if h.w.local {
		rpcs = a.counts[cBackendCalls]
	}
	return map[string]reading{
		"setup_s":                    {median(h.setups), len(h.setups)},
		"ops_per_s":                  {ratio(float64(len(opMs)), sum(opMs)/1e3), len(opMs)},
		"op_p50_ms":                  {median(opMs), len(opMs)},
		"op_tail_ms":                 {quantile(opMs, 0.95), len(opMs)},
		"store_rpcs_per_op":          {ratio(float64(rpcs), ops), 0},
		"wire_bytes_per_user_byte":   {ratio(wire, float64(a.userBytes)), 0},
		"stored_bytes_per_user_byte": {ratio(float64(a.stored), float64(a.live)), 0},
	}
}

// perLayer computes the per-layer metrics from the traced blocks, the
// span breakdown and the layer probes.
func (h *harness) perLayer(b *breakdown, probes map[string]float64) map[string]reading {
	a := &h.tracedA
	ops, nb := float64(a.ops), float64(a.blocks)
	per := func(c counter) float64 { return ratio(float64(a.counts[c]), ops) }
	blk := func(c counter) float64 { return ratio(float64(a.counts[c]), nb) }
	secs := func(d time.Duration) float64 { return ratio(d.Seconds(), nb) }

	out := make(map[string]reading)
	set := func(name string, v float64) { out[name] = reading{value: v} }

	vfsBusy := b.layerBusy("vfs")
	set("vfs.busy_s", secs(vfsBusy))
	for _, class := range callClasses {
		out["vfs."+class+"_p50_us"] = reading{median(a.classUs[class]), len(a.classUs[class])}
	}
	out["vfs.revoke_wire_bytes"] = reading{ratio(float64(a.revokeNet), float64(a.revokes)), int(a.revokes)}

	crossings := a.counts[cEcalls] + a.counts[cOcalls]
	set("sgx.ecalls_per_op", per(cEcalls))
	set("sgx.ocalls_per_op", per(cOcalls))
	set("sgx.time_in_enclave_s", blk(cInEnclaveNs)/1e9)
	set("sgx.transition_s", secs(time.Duration(crossings)*transitionCost))
	set("sgx.epc_peak_bytes", float64(a.epcPeak))

	set("enclave.self_s", secs(b.self["vfs"]))
	set("enclave.metadata_loads_per_op", per(cMetaLoads))
	set("enclave.cache_hit_ratio", ratio(float64(a.counts[cMetaCacheHits]), float64(a.counts[cMetaCacheHits]+a.counts[cMetaLoads])))
	set("enclave.metadata_flushes_per_op", per(cMetaFlushes))
	set("enclave.metadata_bytes_written", blk(cMetaBytes))
	set("enclave.data_bytes_written", blk(cDataBytes))
	set("enclave.chunk_pool_hit_ratio", ratio(float64(a.counts[cPoolHits]), float64(a.counts[cPoolHits]+a.counts[cPoolMisses])))

	set("freshness.proofs_per_op", per(cProofs))
	set("freshness.proof_bytes_per_op", per(cProofBytes))
	set("freshness.proof_busy_s", secs(b.busy["freshness.proof"]))
	set("freshness.updates", blk(cFreshUpdates))
	set("freshness.update_busy_s", secs(b.busy["freshness.update"]))
	set("freshness.self_s", secs(b.self["freshness"]))
	set("freshness.tree_put_bytes", blk(cTreePutBytes))

	set("store.calls_per_op", per(cOcallGets)+per(cOcallPuts)+per(cOcallLocks)+per(cOcallDeletes))
	set("store.get_per_op", per(cOcallGets))
	set("store.put_per_op", per(cOcallPuts))
	set("store.lock_per_op", per(cOcallLocks))
	set("store.delete_per_op", per(cOcallDeletes))
	set("store.busy_s", secs(b.layerBusy("store")))
	set("store.self_s", secs(b.self["store"]))
	set("store.up_bytes", blk(cOcallUp))
	set("store.down_bytes", blk(cOcallDown))

	set("afs.rpcs_per_op", per(cAFSRPCs))
	set("afs.cache_hit_ratio", ratio(float64(a.counts[cAFSCacheHits]), float64(a.counts[cAFSCacheHits]+a.counts[cSrvFetches])))
	set("afs.busy_s", secs(b.layerBusy("afs")))
	set("afs.self_s", secs(b.self["afs"]))
	set("afs.server_fetches", blk(cSrvFetches))
	set("afs.server_stores", blk(cSrvStores))
	set("afs.reconnects", float64(a.counts[cAFSReconnects]))

	// Wire time is netsim's self time: a client Write that is still
	// returning while the server already works does not count twice.
	wire, model := b.self["netsim"].Seconds(), float64(a.counts[cNetModelNs])/1e9
	set("netsim.writes", blk(cNetWrites))
	set("netsim.wire_s", ratio(wire, nb))
	set("netsim.model_s", ratio(model, nb))
	set("netsim.overshoot_frac", 0)
	if model > 0 {
		set("netsim.overshoot_frac", wire/model-1)
	}

	set("backend.calls", blk(cBackendCalls))
	set("backend.busy_s", secs(b.layerBusy("backend")))
	set("backend.total_bytes", ratio(float64(a.stored), nb))

	set("plainfs.op_p50_ms", 0)
	set("plainfs.overhead_x", 0)
	if h.plainMs != nil {
		out["plainfs.op_p50_ms"] = reading{median(h.plainMs), len(h.plainMs)}
		set("plainfs.overhead_x", ratio(median(pooled(h.untraced.opMs)), median(h.plainMs)))
	}

	set("proc.heap_peak_MB", float64(a.heapPeak)/(1<<20))
	set("proc.allocs_per_op", ratio(float64(a.mallocs), ops))
	set("proc.gc_pause_ms", ratio(float64(a.gcPause)/1e6, nb))
	set("trace.overhead_frac", ratio(median(pooled(a.opMs)), median(pooled(h.untraced.opMs)))-1)
	var selfSum time.Duration
	for _, d := range b.self {
		selfSum += d
	}
	set("trace.self_sum_frac", ratio(selfSum.Seconds(), vfsBusy.Seconds()))
	set("trace.orphan_s", secs(b.orphan))
	set("trace.count_mismatches", float64(h.mismatches))

	for name, v := range probes {
		set(name, v)
	}
	return out
}

// finite reports whether every reading is a finite number.
func finite(m map[string]reading) bool {
	for _, r := range m {
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			return false
		}
	}
	return true
}
