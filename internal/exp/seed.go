package exp

// Deterministic per-unit seed derivation. Every (trial, repetition)
// execution unit needs its own RNG seed that is (a) stable — the same
// base seed, trial spec and repetition always derive the same seed, no
// matter how many workers run the grid or in what order — and (b) well
// mixed, so adjacent repetitions or near-identical trials do not get
// correlated random streams.

// fnv64a hashes a key with FNV-1a (stdlib hash/fnv allocates; this is
// the same function inlined for the hot grid-expansion and per-epoch
// paths).
func fnv64a[K string | []byte](s K) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014) —
// a bijective avalanche mix, so distinct inputs stay distinct.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed derives the RNG seed for one execution unit from the
// runner's base seed, the trial's Key() and the repetition index. The
// key may be a string or a byte buffer — per-epoch callers append keys
// with strconv.Append* into reused scratch instead of formatting a
// string per call — and equal bytes derive equal seeds either way.
//
// Repetitions of one trial can never collide: splitmix64 is a
// bijection and hash(key) + rep is distinct for each rep of the same
// key. Across distinct keys uniqueness is probabilistic — two units
// collide only if hash(keyA) + repA == hash(keyB) + repB, i.e. the
// keys' 64-bit FNV hashes land within a small-integer offset of each
// other (~n²/2⁶⁴ for an n-unit grid; negligible at any real grid
// size, and verified collision-free over the full suite grid by
// TestDeriveSeedCollisionFree).
func DeriveSeed[K string | []byte](base int64, key K, rep int) int64 {
	h := fnv64a(key)
	x := splitmix64(uint64(base))
	x ^= splitmix64(h + uint64(rep))
	return int64(splitmix64(x))
}
