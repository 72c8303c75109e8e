// dbstore: running an embedded database on top of a NEXUS volume.
//
// The Table II evaluation runs LevelDB- and SQLite-style engines over
// NEXUS; this example does the same with the repository's LSM key-value
// store, entirely through the public filesystem API. The database's WAL
// appends, table flushes, and compactions all become encrypted object
// writes — the storage provider sees none of the keys or values.
package main

import (
	"fmt"
	"log"

	"nexus"
	"nexus/internal/backend"
	"nexus/internal/kvstore"
	"nexus/internal/vfs"
)

func main() {
	raw := backend.NewMemStore()
	client, err := nexus.NewClient(nexus.ClientConfig{Store: vfs.NewVersionedStore(raw)})
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

	// Open the database inside the protected volume.
	db, err := kvstore.Open(vol.FS().API(), "/appdata/db", kvstore.Options{
		WriteBufferSize: 16 << 10, // small, to force table flushes
	})
	if err != nil {
		log.Fatal(err)
	}

	// A small workload: async puts, one durable (synced) put, reads.
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("user:%04d", i)
		value := fmt.Sprintf(`{"id":%d,"plan":"pro"}`, i)
		if err := db.Put(key, []byte(value), kvstore.WriteOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Put("checkpoint", []byte("committed"), kvstore.WriteOptions{Sync: true}); err != nil {
		log.Fatal(err)
	}

	v, err := db.Get("user:0042")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point read: user:0042 -> %s\n", v)

	it, err := db.NewIterator(false)
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	for it.Next() {
		count++
	}
	fmt.Printf("scan: %d live keys\n", count)
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// Reopen: WAL replay + table loading, all through the enclave.
	db2, err := kvstore.Open(vol.FS().API(), "/appdata/db", kvstore.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	v, err = db2.Get("checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after reopen: checkpoint -> %s\n", v)

	// What the storage provider holds: ciphertext blobs, no "user:",
	// no JSON, no table structure.
	names, err := raw.List("")
	if err != nil {
		log.Fatal(err)
	}
	total := int64(0)
	for _, n := range names {
		b, err := raw.Get(n)
		if err != nil {
			log.Fatal(err)
		}
		total += int64(len(b))
	}
	fmt.Printf("storage provider view: %d opaque objects, %d bytes, zero plaintext\n",
		len(names), total)
}
