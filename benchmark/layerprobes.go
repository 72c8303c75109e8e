package main

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"nexus"
	"nexus/internal/gcmsiv"
	"nexus/internal/groupkey"
	"nexus/internal/merkle"
	"nexus/internal/metadata"
	"nexus/internal/uuid"
)

// probeBudget sizes the layer probes: each probe's iteration count is
// fixed so that one repetition takes about perRep, and the probe reports
// the median of reps repetitions.
type probeBudget struct {
	perRep time.Duration
	reps   int
}

var (
	fullProbes  = probeBudget{perRep: 500 * time.Millisecond, reps: 5}
	quickProbes = probeBudget{perRep: 60 * time.Millisecond, reps: 3}
	smokeProbes = probeBudget{perRep: 2 * time.Millisecond, reps: 1}
)

// perCall returns the median time of one fn call, in nanoseconds.
func (b probeBudget) perCall(fn func()) float64 {
	begin := time.Now()
	fn()
	once := time.Since(begin)
	iters := 1
	if once > 0 && once < b.perRep {
		iters = int(b.perRep / once)
	}
	samples := make([]float64, b.reps)
	for r := range samples {
		begin := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		samples[r] = float64(time.Since(begin)) / float64(iters)
	}
	return median(samples)
}

// layerProbes calls single layers directly, outside any workload: the
// costs a later change to that layer should move. objects sizes the
// Merkle namespace like the workload's final one.
func layerProbes(b probeBudget, objects int) (map[string]float64, error) {
	out := make(map[string]float64)
	var failure error
	must := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}

	// sgx: an empty enclave entry, and one quote produced and verified.
	ias, err := nexus.NewAttestationService()
	if err != nil {
		return nil, err
	}
	client, err := nexus.NewClient(nexus.ClientConfig{Store: nexus.NewMemoryStore(), IAS: ias, TransitionCost: transitionCost})
	if err != nil {
		return nil, err
	}
	container := client.Enclave().SGX()
	out["sgx.ecall_empty_ns"] = b.perCall(func() { must(container.Ecall(func() error { return nil })) })
	report := make([]byte, 32)
	out["sgx.quote_verify_us"] = b.perCall(func() {
		quote, err := container.Quote(report)
		must(err)
		if err == nil {
			_, err = ias.VerifyQuote(quote)
			must(err)
		}
	}) / 1e3

	// metadata: sealing and opening a 4 KiB metadata body; chunk crypto
	// over an 8 MiB file, serial and at the machine's width.
	volumeSecret := make([]byte, metadata.RootKeySize)
	body := make([]byte, 4<<10)
	if _, err := rand.Read(volumeSecret); err != nil {
		return nil, err
	}
	pre := metadata.Preamble{Type: metadata.TypeFilenode, UUID: uuid.New(), Parent: uuid.New(), Version: 1}
	var blob []byte
	out["metadata.seal_4k_us"] = b.perCall(func() {
		var err error
		blob, err = metadata.Seal(volumeSecret, pre, body)
		must(err)
	}) / 1e3
	out["metadata.open_4k_us"] = b.perCall(func() {
		_, _, err := metadata.Open(volumeSecret, blob)
		must(err)
	}) / 1e3

	const fileLen = 8 << 20
	plain := make([]byte, fileLen)
	node := metadata.NewFilenode(uuid.New(), uuid.New(), 0)
	sealedBuf := make([]byte, 0, node.SealedSize(fileLen)+1<<10)
	opened := make([]byte, fileLen)
	for _, width := range []struct {
		tag     string
		workers int
	}{{"w1", 1}, {"wN", runtime.NumCPU()}} {
		var sealed []byte
		ns := b.perCall(func() {
			var err error
			sealed, err = node.EncryptContentInto(sealedBuf, plain, width.workers)
			must(err)
		})
		out["metadata.encrypt_8m_"+width.tag+"_MBps"] = fileLen / (1 << 20) / (ns / 1e9)
		ns = b.perCall(func() {
			_, err := node.DecryptContentInto(opened, sealed, width.workers)
			must(err)
		})
		out["metadata.decrypt_8m_"+width.tag+"_MBps"] = fileLen / (1 << 20) / (ns / 1e9)
	}

	// gcmsiv: one 32-byte key wrap.
	aead, err := gcmsiv.New(volumeSecret)
	if err != nil {
		return nil, err
	}
	nonce, payload := make([]byte, aead.NonceSize()), make([]byte, 32)
	wrapped := make([]byte, 0, 64)
	var wrapCount uint64
	out["gcmsiv.wrap_32b_ns"] = b.perCall(func() {
		wrapCount++
		binary.LittleEndian.PutUint64(nonce, wrapCount)
		wrapped = aead.Seal(wrapped[:0], nonce, payload, nil)
	})

	// groupkey: revoking one of 256 members (the re-add between
	// revocations is not timed).
	ids := make([]uint32, 256)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	group, err := groupkey.NewTreeWithMembers(groupkey.Config{}, ids)
	if err != nil {
		return nil, err
	}
	var revokeNs []float64
	var wraps, revokes int64
	deadline := time.Now().Add(time.Duration(b.reps) * b.perRep)
	for i := 0; len(revokeNs) == 0 || time.Now().Before(deadline); i++ {
		id := ids[i%len(ids)]
		before := group.Stats().Wraps
		begin := time.Now()
		err := group.Revoke(id)
		revokeNs = append(revokeNs, float64(time.Since(begin)))
		must(err)
		wraps += group.Stats().Wraps - before
		revokes++
		_, err = group.Add(id)
		must(err)
	}
	out["groupkey.revoke_256_us"] = median(revokeNs) / 1e3
	out["groupkey.wraps_per_revoke"] = float64(wraps) / float64(revokes)

	// merkle: proving, verifying and encoding a namespace the size of
	// the workload's final one.
	if objects < 1 {
		objects = 1
	}
	tree := merkle.New()
	leaves := make([]uuid.UUID, objects)
	for i := range leaves {
		leaves[i] = uuid.New()
		tree.Set(leaves[i], 1)
	}
	next := 0
	var proof *merkle.Proof
	out["merkle.prove_us"] = b.perCall(func() {
		proof = tree.Prove(leaves[next%objects])
		next++
	}) / 1e3
	root, leaf := tree.Root(), leaves[(next-1)%objects]
	out["merkle.verify_us"] = b.perCall(func() {
		_, present, err := proof.Verify(root, leaf)
		must(err)
		if err == nil && !present {
			must(fmt.Errorf("merkle probe: proof does not show the leaf"))
		}
	}) / 1e3
	out["merkle.encode_tree_us"] = b.perCall(func() { _ = tree.Encode() }) / 1e3

	return out, failure
}
