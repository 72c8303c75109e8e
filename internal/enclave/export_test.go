package enclave

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
