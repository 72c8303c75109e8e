package sgx

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func newTestPlatform(t *testing.T, ias *AttestationService) *Platform {
	t.Helper()
	p, err := NewPlatform(PlatformConfig{}, ias)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return p
}

func testImage(name string) Image {
	return Image{Name: name, Version: 1, Code: []byte("enclave code for " + name)}
}

func TestMeasurementDeterministicAndDistinct(t *testing.T) {
	a := testImage("nexus").Measure()
	b := testImage("nexus").Measure()
	if a != b {
		t.Fatal("same image measured differently")
	}
	if testImage("other").Measure() == a {
		t.Fatal("different images share a measurement")
	}
	v2 := Image{Name: "nexus", Version: 2, Code: []byte("enclave code for nexus")}
	if v2.Measure() == a {
		t.Fatal("version bump did not change measurement")
	}
	tampered := Image{Name: "nexus", Version: 1, Code: []byte("ENCLAVE code for nexus")}
	if tampered.Measure() == a {
		t.Fatal("code change did not change measurement")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	p := newTestPlatform(t, nil)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()

	secret := []byte("volume rootkey 0123456789abcdef")
	aad := []byte("volume-id")
	blob, err := e.Seal(secret, aad)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if bytes.Contains(blob, secret) {
		t.Fatal("sealed blob contains plaintext secret")
	}
	got, err := e.Unseal(blob, aad)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("unsealed data differs")
	}
}

func TestSealBindsToPlatform(t *testing.T) {
	p1 := newTestPlatform(t, nil)
	p2 := newTestPlatform(t, nil)
	img := testImage("nexus")
	e1, err := p1.CreateEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p2.CreateEnclave(img)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := e1.Seal([]byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Unseal(blob, nil); !errors.Is(err, ErrSealTampered) {
		t.Fatalf("cross-platform unseal error = %v, want ErrSealTampered", err)
	}
}

func TestSealBindsToMeasurement(t *testing.T) {
	p := newTestPlatform(t, nil)
	e1, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p.CreateEnclave(testImage("malicious"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := e1.Seal([]byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Unseal(blob, nil); !errors.Is(err, ErrSealTampered) {
		t.Fatalf("cross-enclave unseal error = %v, want ErrSealTampered", err)
	}
}

func TestSealDetectsTamperAndAADMismatch(t *testing.T) {
	p := newTestPlatform(t, nil)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := e.Seal([]byte("secret"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		mut := bytes.Clone(blob)
		mut[i] ^= 1
		if _, err := e.Unseal(mut, []byte("aad")); !errors.Is(err, ErrSealTampered) {
			t.Fatalf("tamper at byte %d undetected: %v", i, err)
		}
	}
	if _, err := e.Unseal(blob, []byte("other")); !errors.Is(err, ErrSealTampered) {
		t.Fatalf("AAD mismatch undetected: %v", err)
	}
	if _, err := e.Unseal(blob[:4], []byte("aad")); !errors.Is(err, ErrSealTampered) {
		t.Fatalf("short blob undetected: %v", err)
	}
}

func TestEPCAccounting(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{EPCSize: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AllocEPC(512 << 10); err != nil {
		t.Fatalf("AllocEPC within budget: %v", err)
	}
	if err := e.AllocEPC(1 << 20); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("over-budget alloc error = %v, want ErrEPCExhausted", err)
	}
	e.FreeEPC(512 << 10)
	if got := e.HeapEPC(); got != 0 {
		t.Fatalf("HeapEPC after free = %d, want 0", got)
	}
	// Destroy releases everything back to the platform.
	if err := e.AllocEPC(256 << 10); err != nil {
		t.Fatal(err)
	}
	before := p.EPCInUse()
	e.Destroy()
	if after := p.EPCInUse(); after >= before {
		t.Fatalf("Destroy did not release EPC: before=%d after=%d", before, after)
	}
}

// TestConcurrentEPCAccounting charges and returns enclave heap from four
// goroutines at once, so the race detector checks that the enclave's and
// the platform's EPC counters are touched only under their locks, and
// that every byte charged is returned.
func TestConcurrentEPCAccounting(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{EPCSize: 1 << 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	base := p.EPCInUse()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := e.AllocEPC(4096); err != nil {
					t.Error(err)
					return
				}
				if e.HeapEPC() < 4096 {
					t.Error("HeapEPC below this goroutine's own charge")
				}
				e.FreeEPC(4096)
			}
		}()
	}
	wg.Wait()
	if got := e.HeapEPC(); got != 0 {
		t.Fatalf("HeapEPC = %d after every charge was returned, want 0", got)
	}
	if got := p.EPCInUse(); got != base {
		t.Fatalf("EPCInUse = %d, want the enclave's base %d", got, base)
	}
}

func TestDestroyedEnclaveRejectsUse(t *testing.T) {
	p := newTestPlatform(t, nil)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	e.Destroy()
	e.Destroy() // idempotent
	if _, err := e.Seal([]byte("x"), nil); !errors.Is(err, ErrEnclaveDestroyed) {
		t.Fatalf("Seal after destroy = %v", err)
	}
	if err := e.Ecall(func() error { return nil }); !errors.Is(err, ErrEnclaveDestroyed) {
		t.Fatalf("Ecall after destroy = %v", err)
	}
	if _, err := e.Quote(nil); !errors.Is(err, ErrEnclaveDestroyed) {
		t.Fatalf("Quote after destroy = %v", err)
	}
}

func TestTransitionAccounting(t *testing.T) {
	p := newTestPlatform(t, nil)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	inner := errors.New("inner")
	if err := e.Ecall(func() error {
		return e.Ocall(func() error { return inner })
	}); !errors.Is(err, inner) {
		t.Fatalf("Ecall propagated %v", err)
	}
	if e.EcallCount() != 1 || e.OcallCount() != 1 {
		t.Fatalf("counts = %d ecalls, %d ocalls; want 1, 1", e.EcallCount(), e.OcallCount())
	}
}

func TestOcallTimeNotChargedToEnclave(t *testing.T) {
	p := newTestPlatform(t, nil)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	const outside = 20 * time.Millisecond
	err = e.Ecall(func() error {
		return e.Ocall(func() error {
			time.Sleep(outside)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if in := e.TimeInEnclave(); in > outside/2 {
		t.Fatalf("enclave residency %v includes ocall time (slept %v)", in, outside)
	}
}

func TestTransitionCostCharged(t *testing.T) {
	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(PlatformConfig{TransitionCost: 200 * time.Microsecond}, ias)
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const n = 20
	for i := 0; i < n; i++ {
		if err := e.Ecall(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < n*200*time.Microsecond {
		t.Fatalf("20 ecalls at 200µs each took only %v", elapsed)
	}
}

func TestQuoteVerification(t *testing.T) {
	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPlatform(t, ias)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	reportData := bytes.Repeat([]byte{0xaa}, 33) // an ECDH public key, say
	q, err := e.Quote(reportData)
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	report, err := ias.VerifyQuote(q)
	if err != nil {
		t.Fatalf("VerifyQuote: %v", err)
	}
	if err := VerifyReport(ias.PublicKey(), report); err != nil {
		t.Fatalf("VerifyReport: %v", err)
	}
	if !bytes.Equal(report.Quote.ReportData[:len(reportData)], reportData) {
		t.Fatal("report data not carried through")
	}
	if report.Quote.Measurement != e.Measurement() {
		t.Fatal("measurement not carried through")
	}
}

func TestQuoteTamperRejected(t *testing.T) {
	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPlatform(t, ias)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Quote([]byte("report"))
	if err != nil {
		t.Fatal(err)
	}

	// Tampered report data.
	mut := *q
	mut.ReportData[0] ^= 1
	if _, err := ias.VerifyQuote(&mut); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("tampered report data accepted: %v", err)
	}
	// Tampered measurement (pretending to be a different enclave).
	mut2 := *q
	mut2.Measurement[0] ^= 1
	if _, err := ias.VerifyQuote(&mut2); !errors.Is(err, ErrQuoteInvalid) {
		t.Fatalf("tampered measurement accepted: %v", err)
	}
	// Quote from an unprovisioned platform.
	rogue, err := NewPlatform(PlatformConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	re, err := rogue.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	rq, err := re.Quote([]byte("report"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ias.VerifyQuote(rq); !errors.Is(err, ErrUnknownPlatform) {
		t.Fatalf("rogue platform quote error = %v, want ErrUnknownPlatform", err)
	}
}

func TestPlatformRevocation(t *testing.T) {
	ias, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPlatform(t, ias)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Quote(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ias.VerifyQuote(q); err != nil {
		t.Fatalf("pre-revocation verify: %v", err)
	}
	ias.Revoke(p.ID())
	if _, err := ias.VerifyQuote(q); !errors.Is(err, ErrUnknownPlatform) {
		t.Fatalf("post-revocation verify = %v, want ErrUnknownPlatform", err)
	}
}

func TestReportSignatureBindsService(t *testing.T) {
	ias1, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	ias2, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPlatform(t, ias1)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Quote(nil)
	if err != nil {
		t.Fatal(err)
	}
	report, err := ias1.VerifyQuote(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReport(ias2.PublicKey(), report); err == nil {
		t.Fatal("report verified against the wrong service key")
	}
}

func TestQuoteReportDataTooLong(t *testing.T) {
	p := newTestPlatform(t, nil)
	e, err := p.CreateEnclave(testImage("nexus"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Quote(make([]byte, ReportDataSize+1)); err == nil {
		t.Fatal("oversized report data accepted")
	}
}
