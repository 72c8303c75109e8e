package metadata

import (
	"fmt"
	"testing"

	"nexus/internal/uuid"
)

func BenchmarkSealMetadata(b *testing.B) {
	rk, err := NewRootKey()
	if err != nil {
		b.Fatal(err)
	}
	p := Preamble{Type: TypeDirnode, UUID: uuid.New(), Version: 1}
	body := make([]byte, 4096) // a typical dirnode bucket
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Seal(rk, p, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenMetadata(b *testing.B) {
	rk, err := NewRootKey()
	if err != nil {
		b.Fatal(err)
	}
	p := Preamble{Type: TypeDirnode, UUID: uuid.New(), Version: 1}
	blob, err := Seal(rk, p, make([]byte, 4096))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(rk, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkEncrypt1MiB(b *testing.B) {
	f := NewFilenode(uuid.New(), uuid.Nil, DefaultChunkSize)
	data := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sealContent(f, data, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkDecrypt1MiB(b *testing.B) {
	f := NewFilenode(uuid.New(), uuid.Nil, DefaultChunkSize)
	blob, err := sealContent(f, make([]byte, 1<<20), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.DecryptContent(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunkEncryptWorkers sweeps the parallel pipeline's fan-out
// width over a 16 MiB file (16 chunks at the paper's 1 MiB chunk size),
// the workload class the CI perf gate tracks. workers=1 is the serial
// baseline the ≥2×-at-8-cores acceptance target compares against.
func BenchmarkChunkEncryptWorkers(b *testing.B) {
	data := make([]byte, 16<<20)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("16MiB/w%d", w), func(b *testing.B) {
			f := NewFilenode(uuid.New(), uuid.Nil, DefaultChunkSize)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sealContent(f, data, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChunkDecryptWorkers is the read-path counterpart.
func BenchmarkChunkDecryptWorkers(b *testing.B) {
	f := NewFilenode(uuid.New(), uuid.Nil, DefaultChunkSize)
	blob, err := sealContent(f, make([]byte, 16<<20), 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("16MiB/w%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := openContent(f, blob, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDirnodeLookup(b *testing.B) {
	for _, entries := range []int{128, 1024, 8192} {
		b.Run(fmt.Sprintf("entries%d", entries), func(b *testing.B) {
			d := NewDirnode(uuid.New(), uuid.Nil, DefaultBucketSize)
			for i := 0; i < entries; i++ {
				if err := d.Insert(DirEntry{
					Name: fmt.Sprintf("file%06d", i), UUID: uuid.New(), Kind: KindFile,
				}, noLoad); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Lookup(fmt.Sprintf("file%06d", i%entries), noLoad); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
