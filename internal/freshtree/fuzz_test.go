package freshtree

import (
	"bytes"
	"testing"

	"nexus/internal/merkle"
	"nexus/internal/serial"
)

// FuzzFreshnessFrameDecode feeds the root object's frame decoder — the
// one parser here that reads bytes the storage service chose before any
// authentication has run. Whatever arrives, it must not panic, must not
// allocate beyond the input's own size (the entry count is capped and
// checked against the bytes present before the delta is made), and must
// either hand the input back whole, refused (a bare root, the retired
// layout, among the seeds), or accept a frame whose re-encoding is the
// input, byte for byte. The same bytes go through the checkpoint
// decoder, which must reject them or round-trip a format-2 checkpoint;
// the retired format-1 snapshot among the seeds must be rejected.
func FuzzFreshnessFrameDecode(f *testing.F) {
	tree := merkle.New()
	delta := make([]merkle.LeafUpdate, 3)
	for i := range delta {
		delta[i] = merkle.LeafUpdate{ID: fsTestUUID(byte(i + 1)), Version: uint64(i)}
		tree.Set(delta[i].ID, uint64(i+1))
	}
	sealed := fakeSealed(4, tree.Root())
	enc := tree.Encode()
	snapshot := serial.NewWriter(64 + len(enc))
	snapshot.WriteUint8(1)
	snapshot.WriteUint64(4)
	snapshot.WriteUint32(1)
	snapshot.WriteRaw(delta[0].ID[:])
	snapshot.WriteUint64(0)
	snapshot.WriteBytes(enc)

	f.Add(sealed)
	f.Add(appendRootTrailer(sealed, rootTrailer{base: 4, tip: 4}))
	f.Add(appendRootTrailer(sealed, rootTrailer{base: 1, tip: 4, spent: 9, delta: delta}))
	if _, _, err := decodeCheckpoint(snapshot.Bytes()); err == nil {
		f.Fatal("the format-1 snapshot seed decodes")
	}
	f.Add(snapshot.Bytes())
	f.Add(encodeCheckpoint(tree, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed, tr, framed := splitDecoded(data)
		if !framed {
			if !bytes.Equal(sealed, data) || tr.delta != nil {
				t.Fatalf("input refused as a frame came back changed: %x", sealed)
			}
		} else {
			if tr.base > tr.tip || len(sealed)+len(tr.delta)*deltaEntrySize > len(data) {
				t.Fatalf("accepted frame: base %d tip %d, %d sealed bytes and %d entries from %d bytes", tr.base, tr.tip, len(sealed), len(tr.delta), len(data))
			}
			if out := appendRootTrailer(sealed, tr); !bytes.Equal(out, data) {
				t.Fatalf("re-encoded frame differs:\n in  %x\n out %x", data, out)
			}
		}

		ckpt, epoch, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if data[0] != checkpointFormat {
			t.Fatalf("accepted a checkpoint of format %d", data[0])
		}
		again, epoch2, err := decodeCheckpoint(encodeCheckpoint(ckpt, epoch))
		if err != nil || epoch2 != epoch || again.Root() != ckpt.Root() {
			t.Fatalf("accepted checkpoint does not round-trip: epoch %d → %d, err %v", epoch, epoch2, err)
		}
	})
}
