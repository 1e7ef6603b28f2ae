package sim

// FastMargin is the guard margin Index uses, for package sim_test.
const FastMargin = fastMargin

// FastIndex reports the fast path's index for bits, before clamping,
// and whether the guard with the given margin accepts it; ok is false
// for a generator without the fast path.
func (z *ZipfGen) FastIndex(bits uint64, margin float64) (i int, ok bool) {
	return z.fastIndex(unit(bits), margin)
}
