package enclave

import (
	"bytes"

	"nexus/internal/metadata"
)

// InlineFile is a 4 KiB file of b, as local_mixed's small files are:
// below metadata.MaxInlineSize, so its content is sealed inside its
// filenode, one object.
func InlineFile(b byte) []byte {
	return bytes.Repeat([]byte{b}, 4<<10)
}

// ChunkedFile is the smallest file of b above metadata.MaxInlineSize: its
// content is a data object beside its filenode.
func ChunkedFile(b byte) []byte {
	return bytes.Repeat([]byte{b}, metadata.MaxInlineSize+1)
}

// KeysForLeakCheck returns copies of the keys this enclave holds that the
// key-leak property (keyleak_test.go) searches every outgoing byte for:
// the volume rootkey (nil while no volume is active) and the private
// exchange keys, the long-term one and the pending key of an in-flight
// mutual exchange. It exists only in test builds.
func (e *Enclave) KeysForLeakCheck() (rootKey []byte, exchange [][]byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rootKey = append([]byte(nil), e.rootKey...)
	exchange = append(exchange, e.exchange.priv.Bytes())
	if e.pendingMutual != nil {
		exchange = append(exchange, e.pendingMutual.Bytes())
	}
	return rootKey, exchange
}

// SetWritebackMaxOps sets the number of deferred mutations after which
// the dirty set drains inline (defaultWritebackMaxOps otherwise); 1
// drains after every mutation, which is per-op durability. The unit
// tests' constructors set it, so tests observe the store without
// barriers of their own. It exists only in test builds.
func (e *Enclave) SetWritebackMaxOps(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.wb.maxOps = n
}
