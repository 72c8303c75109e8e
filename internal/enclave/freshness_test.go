package enclave

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"nexus/internal/metadata"
	"nexus/internal/serial"
)

// decodeFormat1Root is decodeMerkleRoot as enclaves that lock each
// directory before a commit have it: format 1 or nothing.
func decodeFormat1Root(body []byte) error {
	r := serial.NewReader(body)
	if f := r.ReadUint8("merkle root format"); r.Err() == nil && f != 1 {
		return metadata.ErrMalformed
	}
	r.ReadRaw(32, "merkle root hash")
	r.ReadUint64("merkle root epoch")
	return r.Finish()
}

// TestMerkleRootFormat2Golden pins the sealed root body the commit
// protocol writes (testdata/merkle-root-format2.body: format 2, hash
// 0x20..0x3f, epoch 0x0102030405060708). An enclave that still takes
// directory locks rejects it, so it fails closed instead of committing
// beside clients that take none; a format-1 body, the retired layout
// such an enclave wrote, fails closed here with ErrUnsupportedLayout.
func TestMerkleRootFormat2Golden(t *testing.T) {
	golden, err := os.ReadFile("testdata/merkle-root-format2.body")
	if err != nil {
		t.Fatal(err)
	}
	var root [32]byte
	for i := range root {
		root[i] = byte(0x20 + i)
	}
	const epoch = 0x0102030405060708
	if got := encodeMerkleRoot(root, epoch); !bytes.Equal(got, golden) {
		t.Fatalf("encodeMerkleRoot = %x, golden %x", got, golden)
	}
	if err := decodeFormat1Root(golden); !errors.Is(err, metadata.ErrMalformed) {
		t.Fatalf("a format-1 decoder accepted the format-2 root: %v", err)
	}
	format1 := append([]byte{1}, golden[1:]...)
	if err := decodeFormat1Root(format1); err != nil {
		t.Fatalf("format-1 decoder on a format-1 body: %v", err)
	}
	if gotRoot, gotEpoch, err := decodeMerkleRoot(golden); err != nil || gotRoot != root || gotEpoch != epoch {
		t.Fatalf("decodeMerkleRoot(format 2) = %x, %#x, %v", gotRoot, gotEpoch, err)
	}
	if _, _, err := decodeMerkleRoot(format1); !errors.Is(err, metadata.ErrUnsupportedLayout) {
		t.Fatalf("decodeMerkleRoot(format 1) = %v, want ErrUnsupportedLayout", err)
	}
	if _, _, err := decodeMerkleRoot(append([]byte{3}, golden[1:]...)); !errors.Is(err, metadata.ErrMalformed) {
		t.Fatalf("format 3 decoded: %v", err)
	}
}
