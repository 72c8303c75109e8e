package enclave

import (
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"testing"

	"nexus/internal/sgx"
)

// newBenchVolume builds a mounted volume over a memory store with no
// simulated costs, isolating the enclave's own work.
func newBenchVolume(b *testing.B) *Enclave {
	b.Helper()
	store := newMemObjectStore()
	platform, err := sgx.NewPlatform(sgx.PlatformConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	container, err := platform.CreateEnclave(nexusImage)
	if err != nil {
		b.Fatal(err)
	}
	encl, err := New(Config{SGX: container, Store: store})
	if err != nil {
		b.Fatal(err)
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	owner := identity{name: "owner", pub: pub, priv: priv}
	sealed, err := encl.CreateVolume("owner", owner.pub)
	if err != nil {
		b.Fatal(err)
	}
	volID, err := encl.VolumeUUID()
	if err != nil {
		b.Fatal(err)
	}
	nonce, blob, err := encl.BeginAuth(owner.pub, sealed, volID)
	if err != nil {
		b.Fatal(err)
	}
	msg := append(append([]byte(nil), nonce...), blob...)
	sig, err := owner.signer()(msg)
	if err != nil {
		b.Fatal(err)
	}
	if err := encl.CompleteAuth(sig); err != nil {
		b.Fatal(err)
	}
	return encl
}

func BenchmarkEnclaveTouch(b *testing.B) {
	e := newBenchVolume(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Touch(fmt.Sprintf("/f%08d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnclaveWriteFile64KiB(b *testing.B) {
	e := newBenchVolume(b)
	if err := e.Touch("/f"); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SaveFile("/f", data, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnclaveReadFile64KiB(b *testing.B) {
	e := newBenchVolume(b)
	if err := e.Touch("/f"); err != nil {
		b.Fatal(err)
	}
	if err := e.SaveFile("/f", make([]byte, 64<<10), false); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ReadFile("/f"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnclaveLookupDeepPath(b *testing.B) {
	e := newBenchVolume(b)
	p := ""
	for i := 0; i < 8; i++ {
		p += fmt.Sprintf("/d%d", i)
		if err := e.Mkdir(p); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Touch(p + "/leaf"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Lookup(p + "/leaf"); err != nil {
			b.Fatal(err)
		}
	}
}
