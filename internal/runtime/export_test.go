package runtime

// Redrain marks every live node dirty and drains: the engine's full
// re-evaluation, as a fresh network or InitArbitrary leaves it.
func Redrain(net *Network) {
	net.markAllDirty()
	net.drain()
}
