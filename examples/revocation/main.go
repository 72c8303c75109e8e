// Revocation: the paper's headline economic argument (§VII-E).
//
// A pure cryptographic filesystem must assume a revoked user cached every
// file key they could read, so revocation means re-encrypting and
// re-uploading every affected file. NEXUS keeps keys inside the enclave,
// so revocation is one small metadata update — regardless of how much
// data the directory holds.
//
// This example revokes a user from a directory holding 10 MB across 64
// files under both systems and prints the bytes each one had to touch.
package main

import (
	"fmt"
	"log"

	"nexus"
	"nexus/internal/backend"
	"nexus/internal/cryptofs"
)

const (
	numFiles = 64
	fileSize = 160 << 10 // ~10 MB total
)

func main() {
	fmt.Printf("population: %d files, %d KB each (%.1f MB total)\n\n",
		numFiles, fileSize>>10, float64(numFiles*fileSize)/(1<<20))

	nexusBytes := runNexus()
	cryptoBytes := runCryptoFS()

	fmt.Printf("\nrevocation payload:\n")
	fmt.Printf("  NEXUS:           %10d bytes (one dirnode re-encrypted)\n", nexusBytes)
	fmt.Printf("  pure crypto FS:  %10d bytes (every file re-encrypted + re-keyed)\n", cryptoBytes)
	fmt.Printf("  ratio:           %10.0fx\n", float64(cryptoBytes)/float64(nexusBytes))
}

func runNexus() int64 {
	reg := nexus.NewObs()
	client, err := nexus.NewClient(nexus.ClientConfig{Store: nexus.NewMemoryStore(), Obs: reg})
	if err != nil {
		log.Fatal(err)
	}
	owner, err := nexus.NewIdentity("owen")
	if err != nil {
		log.Fatal(err)
	}
	vol, _, err := client.CreateVolume(owner)
	if err != nil {
		log.Fatal(err)
	}
	alice, err := nexus.NewIdentity("alice")
	if err != nil {
		log.Fatal(err)
	}
	if err := vol.AddUser("alice", alice.PublicKey); err != nil {
		log.Fatal(err)
	}

	fs := vol.FS()
	if err := fs.MkdirAll("/project"); err != nil {
		log.Fatal(err)
	}
	payload := make([]byte, fileSize)
	for i := 0; i < numFiles; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/project/f%03d", i), payload); err != nil {
			log.Fatal(err)
		}
	}
	if err := vol.SetACL("/project", "alice", nexus.ReadWrite); err != nil {
		log.Fatal(err)
	}

	// Revoke: one ACL update, one metadata object re-encrypted.
	const flushed, uploaded = "enclave_metadata_flushes_total", "enclave_metadata_bytes_written_total"
	flushes, written := reg.CounterValue(flushed), reg.CounterValue(uploaded)
	if err := vol.SetACL("/project", "alice", nexus.NoRights); err != nil {
		log.Fatal(err)
	}
	flushes, written = reg.CounterValue(flushed)-flushes, reg.CounterValue(uploaded)-written
	fmt.Printf("NEXUS revocation: %d metadata object(s), %d bytes uploaded, 0 file bytes touched\n",
		flushes, written)
	return written
}

func runCryptoFS() int64 {
	owner, err := cryptofs.NewUser("owen")
	if err != nil {
		log.Fatal(err)
	}
	alice, err := cryptofs.NewUser("alice")
	if err != nil {
		log.Fatal(err)
	}
	cfs := cryptofs.New(backend.NewMemStore(), owner)
	cfs.AddUser(alice)

	payload := make([]byte, fileSize)
	paths := make([]string, 0, numFiles)
	for i := 0; i < numFiles; i++ {
		p := fmt.Sprintf("/project/f%03d", i)
		paths = append(paths, p)
		if err := cfs.WriteFile(p, payload, []string{"alice"}); err != nil {
			log.Fatal(err)
		}
	}

	stats, err := cfs.Revoke("alice", paths)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crypto-fs revocation: %d files re-encrypted, %d bytes re-encrypted, %d bytes uploaded, %d key wraps\n",
		stats.FilesTouched, stats.BytesReencrypted, stats.BytesUploaded, stats.KeyWraps)
	return stats.BytesUploaded
}
