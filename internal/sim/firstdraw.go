package sim

import (
	"math"
	"math/rand"
	"sync"
)

// This file computes the FIRST normal draw of a freshly seeded RNG in
// O(1), bit-for-bit identical to NewRNG(seed) doing the same draw.
//
// The simulator's determinism discipline derives a fresh seed per
// logical event (per session-epoch jitter, for example) so results
// never depend on evaluation order. math/rand makes that discipline
// expensive: Seed() warms a 607-element lagged-Fibonacci register (~1900
// Lehmer steps, ~5KB of state) even when the caller consumes a single
// value. On a million-session sweep that seeding is the dominant cost.
//
// The shortcut reconstructs the generator's k-th output directly.
// Seeding leaves feed at rngLen-rngTap=334 and tap at 0, and both
// decrement before each read, so output k is vec[334-k]+vec[607-k]
// (masked to 63 bits) for as long as neither index has come round to a
// slot an earlier output wrote back — the first 273 outputs. Each vec[i]
// is built from three consecutive values of the seeding LCG
// x[n+1] = 48271·x[n] mod 2³¹-1 — element i uses chain positions
// 20+3i+1..3 (20 warmup steps precede element 0) — XORed with a fixed
// "cooked" constant. A multiplicative LCG jumps to position n with one
// modmul by 48271ⁿ, so output k costs six modmuls. replayNormal runs
// math/rand's NormFloat64 ziggurat loop over outputs 1..firstDrawK made
// this way: the first-try accept (k = 1), the wedge test against fn,
// and the base-strip tail with rn and math.Log.
//
// The magic constants below are math/rand's: rngCooked[334-k] and
// rngCooked[607-k] for k = 1..firstDrawK from rng.go, and the ziggurat
// tables kn/wn/fn and tail start rn from normal.go (Go stdlib, BSD
// license). They are frozen by the Go 1 compatibility promise —
// top-level math/rand sequences can never change — and verifyFirstDraw
// cross-checks against the real generator on first use anyway, over
// seeds taking every branch, falling back to full seeding on any
// mismatch.

const (
	lehmerM = 1<<31 - 1 // modulus of math/rand's seeding LCG
	lehmerA = 48271     // its multiplier

	rngMask = 1<<63 - 1 // Int63 masks the sign bit off Uint64

	// firstDrawK is how many outputs the replay reconstructs. Any K up
	// to 273 is exact; a ziggurat rejection reads one or two more
	// outputs, and none of 2,000,000 seeds tried needed more than seven.
	// Past K, FirstNormal seeds a real generator.
	firstDrawK = 16

	rn = 3.442619855899 // math/rand's ziggurat base-strip tail start
)

// rngCooked[334-k] and rngCooked[607-k] from math/rand/rng.go, indexed
// by k-1: the cooked constants of the two register elements output k
// reads.
var (
	cookedFeed = [firstDrawK]int64{
		-4633371852008891965, 4287360518296753003, -1072987336855386047, 220828013409515943,
		-7602572252857820065, -4799698790548231394, 3648778920718647903, 581945337509520675,
		-8060058171802589521, -6564663803938238204, -2889241648411946534, -3915372517896561773,
		3681559472488511871, 2681532557646850893, -4304087667751778808, -8394115921626182539,
	}
	cookedTap = [firstDrawK]int64{
		4152330101494654406, 9103922860780351547, 8382142935188824023, -2171292963361310674,
		-6278469401177312761, -307900319840287220, -1894351639983151068, -758328221503023383,
		5896236396443472108, -6344160503358350167, -4300543082831323144, -3929437324238184044,
		-7703910638917631350, 2918308698224194548, 4133292154170828382, -7490986807540332668,
	}
)

// firstDrawJump[k-1] holds the jump multipliers 48271ⁿ mod 2³¹-1 for
// the six chain positions output k reads: vec[334-k] (n = 1023-3k ..
// 1025-3k) and vec[607-k] (n = 1842-3k .. 1844-3k).
var firstDrawJump = func() (t [firstDrawK][6]uint64) {
	for k := 1; k <= firstDrawK; k++ {
		for d := 0; d < 3; d++ {
			t[k-1][d] = modexp(lehmerA, uint64(1023-3*k+d))
			t[k-1][3+d] = modexp(lehmerA, uint64(1842-3*k+d))
		}
	}
	return t
}()

func modexp(base, exp uint64) uint64 {
	r, b := uint64(1), base%lehmerM
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			r = r * b % lehmerM
		}
		b = b * b % lehmerM
	}
	return r
}

// firstDraws replays a freshly seeded math/rand source's outputs
// 1..limit (limit <= firstDrawK) without building its register.
type firstDraws struct {
	x0    uint64 // chain position 0: the normalized seed
	n     int    // outputs consumed so far
	limit int
}

func newFirstDraws(seed int64, limit int) firstDraws {
	// Seed normalization copies rngSource.Seed.
	s := seed % lehmerM
	if s < 0 {
		s += lehmerM
	}
	if s == 0 {
		s = 89482311 // rngSource.Seed's replacement for the fixed point 0
	}
	return firstDraws{x0: uint64(s), limit: limit}
}

// int63 is the source's next Int63, or !ok past the limit.
func (d *firstDraws) int63() (int64, bool) {
	if d.n >= d.limit {
		return 0, false
	}
	j := &firstDrawJump[d.n]
	at := func(i int) uint64 { return d.x0 * j[i] % lehmerM }
	feed := at(0)<<40 ^ at(1)<<20 ^ at(2) ^ uint64(cookedFeed[d.n])
	tap := at(3)<<40 ^ at(4)<<20 ^ at(5) ^ uint64(cookedTap[d.n])
	d.n++
	return int64((feed + tap) & rngMask), true
}

// float64 is Rand.Float64 over int63, including its resample on 1.0.
func (d *firstDraws) float64() (float64, bool) {
	for {
		v, ok := d.int63()
		if !ok {
			return 0, false
		}
		if f := float64(v) / (1 << 63); f != 1 {
			return f, true
		}
	}
}

// Ziggurat branches a replay took besides the first-try accept.
const (
	pathWedge = 1 << iota // a non-base strip rejected j and ran the fn wedge test
	pathBase              // the base strip (i == 0) rejected j and sampled the tail
)

// replayNormal is math/rand's NormFloat64 loop, statement for
// statement, over the replayed outputs of a source seeded with seed.
// path reports the rejection branches taken; ok is false when the loop
// needs more than limit outputs.
func replayNormal(seed int64, limit int) (v float64, path int, ok bool) {
	d := newFirstDraws(seed, limit)
	for {
		u, ok := d.int63()
		if !ok {
			return 0, path, false
		}
		j := int32(uint32(u >> 31)) // Rand.Uint32, possibly negative
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x, path, true
		}

		if i == 0 {
			path |= pathBase
			for {
				f1, _ := d.float64()
				f2, ok := d.float64() // fails whenever f1 did
				if !ok {
					return 0, path, false
				}
				x = -math.Log(f1) * (1.0 / rn)
				y := -math.Log(f2)
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x, path, true
			}
			return -rn - x, path, true
		}
		path |= pathWedge
		f, ok := d.float64()
		if !ok {
			return 0, path, false
		}
		if fn[i]+float32(f)*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x, path, true
		}
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

var (
	firstDrawOnce sync.Once
	firstDrawSlow bool // set when verification fails: always fully seed
)

// verifyFirstDraw cross-checks the replay against the real generator on
// first use: all firstDrawK raw outputs for a few edge seeds (no seed
// out of 2M needed more than seven, so only this reaches the last table
// rows), then the normal draw for firstDrawCheckSeeds. Any divergence —
// say a future toolchain breaking the Go 1 sequence promise, or
// compiling the rejection arithmetic differently here than in
// math/rand — permanently routes every call through the slow path,
// trading speed for correctness.
func verifyFirstDraw() {
	for _, s := range []int64{0, 1, -1, lehmerM, math.MinInt64} {
		if !replayMatchesSource(s) {
			firstDrawSlow = true
			return
		}
	}
	r := rand.New(rand.NewSource(0)) // reseeded per seed: one register, not one per check
	for _, s := range firstDrawCheckSeeds() {
		r.Seed(s)
		v, _, ok := replayNormal(s, firstDrawK)
		if ok && v != r.NormFloat64() {
			firstDrawSlow = true
			return
		}
	}
}

// replayMatchesSource reports whether the replayed outputs 1..firstDrawK
// of seed equal a seeded math/rand source's Int63 sequence.
func replayMatchesSource(seed int64) bool {
	src := rand.NewSource(seed)
	d := newFirstDraws(seed, firstDrawK)
	for k := 0; k < firstDrawK; k++ {
		if v, _ := d.int63(); v != src.Int63() {
			return false
		}
	}
	return true
}

// firstDrawCheckSeeds is verifyFirstDraw's seed list: edge seeds, 64
// spread seeds, then the first 128 seeds of the spread that take the
// wedge branch and the first 16 that take the base-strip branch — about
// 215 seeds, found within the first ~30k of the spread.
func firstDrawCheckSeeds() []int64 {
	seeds := []int64{0, 1, -1, lehmerM, -lehmerM, math.MaxInt64, math.MinInt64}
	wedge, base := 0, 0
	for i := int64(0); i < 1<<17 && (i < 64 || wedge < 128 || base < 16); i++ {
		s := i*2654435761 + 12345
		_, path, _ := replayNormal(s, firstDrawK)
		keep := i < 64
		if path&pathWedge != 0 && wedge < 128 {
			wedge++
			keep = true
		}
		if path&pathBase != 0 && base < 16 {
			base++
			keep = true
		}
		if keep {
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// FirstNormal returns exactly what NewRNG(seed).Normal(0, 1) returns,
// in O(1) instead of O(607) seeding work: about 97% of seeds accept on
// the ziggurat's first try (2.75% reject it, measured over 2M seeds)
// and the replay resolves the rejections too. Use it for the
// derive-seed-per-event discipline where each seed yields one draw.
func FirstNormal(seed int64) float64 {
	return firstNormal(seed, firstDrawK)
}

// firstNormal is FirstNormal with the replay capped at limit outputs.
func firstNormal(seed int64, limit int) float64 {
	firstDrawOnce.Do(verifyFirstDraw)
	if !firstDrawSlow {
		if v, _, ok := replayNormal(seed, limit); ok {
			return v
		}
	}
	// Past the replay's outputs (or after a verification failure):
	// replay the identical stream from position zero with the real
	// generator.
	return rand.New(rand.NewSource(seed)).NormFloat64()
}

// FirstLogNormal returns exactly NewRNG(seed).LogNormalAround(m, sigma)
// — the one-draw lognormal jitter — at FirstNormal's O(1) cost.
func FirstLogNormal(seed int64, m, sigma float64) float64 {
	if m <= 0 {
		return 0
	}
	return m * math.Exp(sigma*FirstNormal(seed))
}

// kn, wn and fn are the ziggurat tables from math/rand/normal.go:
// bucket thresholds and slice widths for the accept test
// `absInt32(j) < kn[i] → x = j·wn[i]`, and the strip-edge density
// values the wedge test interpolates.
var kn = [128]uint32{
	0x76ad2212, 0x0, 0x600f1b53, 0x6ce447a6, 0x725b46a2,
	0x7560051d, 0x774921eb, 0x789a25bd, 0x799045c3, 0x7a4bce5d,
	0x7adf629f, 0x7b5682a6, 0x7bb8a8c6, 0x7c0ae722, 0x7c50cce7,
	0x7c8cec5b, 0x7cc12cd6, 0x7ceefed2, 0x7d177e0b, 0x7d3b8883,
	0x7d5bce6c, 0x7d78dd64, 0x7d932886, 0x7dab0e57, 0x7dc0dd30,
	0x7dd4d688, 0x7de73185, 0x7df81cea, 0x7e07c0a3, 0x7e163efa,
	0x7e23b587, 0x7e303dfd, 0x7e3beec2, 0x7e46db77, 0x7e51155d,
	0x7e5aabb3, 0x7e63abf7, 0x7e6c222c, 0x7e741906, 0x7e7b9a18,
	0x7e82adfa, 0x7e895c63, 0x7e8fac4b, 0x7e95a3fb, 0x7e9b4924,
	0x7ea0a0ef, 0x7ea5b00d, 0x7eaa7ac3, 0x7eaf04f3, 0x7eb3522a,
	0x7eb765a5, 0x7ebb4259, 0x7ebeeafd, 0x7ec2620a, 0x7ec5a9c4,
	0x7ec8c441, 0x7ecbb365, 0x7ece78ed, 0x7ed11671, 0x7ed38d62,
	0x7ed5df12, 0x7ed80cb4, 0x7eda175c, 0x7edc0005, 0x7eddc78e,
	0x7edf6ebf, 0x7ee0f647, 0x7ee25ebe, 0x7ee3a8a9, 0x7ee4d473,
	0x7ee5e276, 0x7ee6d2f5, 0x7ee7a620, 0x7ee85c10, 0x7ee8f4cd,
	0x7ee97047, 0x7ee9ce59, 0x7eea0eca, 0x7eea3147, 0x7eea3568,
	0x7eea1aab, 0x7ee9e071, 0x7ee98602, 0x7ee90a88, 0x7ee86d08,
	0x7ee7ac6a, 0x7ee6c769, 0x7ee5bc9c, 0x7ee48a67, 0x7ee32efc,
	0x7ee1a857, 0x7edff42f, 0x7ede0ffa, 0x7edbf8d9, 0x7ed9ab94,
	0x7ed7248d, 0x7ed45fae, 0x7ed1585c, 0x7ece095f, 0x7eca6ccb,
	0x7ec67be2, 0x7ec22eee, 0x7ebd7d1a, 0x7eb85c35, 0x7eb2c075,
	0x7eac9c20, 0x7ea5df27, 0x7e9e769f, 0x7e964c16, 0x7e8d44ba,
	0x7e834033, 0x7e781728, 0x7e6b9933, 0x7e5d8a1a, 0x7e4d9ded,
	0x7e3b737a, 0x7e268c2f, 0x7e0e3ff5, 0x7df1aa5d, 0x7dcf8c72,
	0x7da61a1e, 0x7d72a0fb, 0x7d30e097, 0x7cd9b4ab, 0x7c600f1a,
	0x7ba90bdc, 0x7a722176, 0x77d664e5,
}

var wn = [128]float32{
	1.7290405e-09, 1.2680929e-10, 1.6897518e-10, 1.9862688e-10,
	2.2232431e-10, 2.4244937e-10, 2.601613e-10, 2.7611988e-10,
	2.9073963e-10, 3.042997e-10, 3.1699796e-10, 3.289802e-10,
	3.4035738e-10, 3.5121603e-10, 3.616251e-10, 3.7164058e-10,
	3.8130857e-10, 3.9066758e-10, 3.9975012e-10, 4.08584e-10,
	4.1719309e-10, 4.2559822e-10, 4.338176e-10, 4.418672e-10,
	4.497613e-10, 4.5751258e-10, 4.651324e-10, 4.7263105e-10,
	4.8001775e-10, 4.87301e-10, 4.944885e-10, 5.015873e-10,
	5.0860405e-10, 5.155446e-10, 5.2241467e-10, 5.2921934e-10,
	5.359635e-10, 5.426517e-10, 5.4928817e-10, 5.5587696e-10,
	5.624219e-10, 5.6892646e-10, 5.753941e-10, 5.818282e-10,
	5.882317e-10, 5.946077e-10, 6.00959e-10, 6.072884e-10,
	6.135985e-10, 6.19892e-10, 6.2617134e-10, 6.3243905e-10,
	6.386974e-10, 6.449488e-10, 6.511956e-10, 6.5744005e-10,
	6.6368433e-10, 6.699307e-10, 6.7618144e-10, 6.824387e-10,
	6.8870465e-10, 6.949815e-10, 7.012715e-10, 7.075768e-10,
	7.1389966e-10, 7.202424e-10, 7.266073e-10, 7.329966e-10,
	7.394128e-10, 7.4585826e-10, 7.5233547e-10, 7.58847e-10,
	7.653954e-10, 7.719835e-10, 7.7861395e-10, 7.852897e-10,
	7.920138e-10, 7.987892e-10, 8.0561924e-10, 8.125073e-10,
	8.194569e-10, 8.2647167e-10, 8.3355556e-10, 8.407127e-10,
	8.479473e-10, 8.55264e-10, 8.6266755e-10, 8.7016316e-10,
	8.777562e-10, 8.8545243e-10, 8.932582e-10, 9.0117996e-10,
	9.09225e-10, 9.174008e-10, 9.2571584e-10, 9.341788e-10,
	9.427997e-10, 9.515889e-10, 9.605579e-10, 9.697193e-10,
	9.790869e-10, 9.88676e-10, 9.985036e-10, 1.0085882e-09,
	1.0189509e-09, 1.0296151e-09, 1.0406069e-09, 1.0519566e-09,
	1.063698e-09, 1.0758702e-09, 1.0885183e-09, 1.1016947e-09,
	1.1154611e-09, 1.1298902e-09, 1.1450696e-09, 1.1611052e-09,
	1.1781276e-09, 1.1962995e-09, 1.2158287e-09, 1.2369856e-09,
	1.2601323e-09, 1.2857697e-09, 1.3146202e-09, 1.347784e-09,
	1.3870636e-09, 1.4357403e-09, 1.5008659e-09, 1.6030948e-09,
}

var fn = [128]float32{
	1, 0.9635997, 0.9362827, 0.9130436, 0.89228165, 0.87324303,
	0.8555006, 0.8387836, 0.8229072, 0.8077383, 0.793177,
	0.7791461, 0.7655842, 0.7524416, 0.73967725, 0.7272569,
	0.7151515, 0.7033361, 0.69178915, 0.68049186, 0.6694277,
	0.658582, 0.6479418, 0.63749546, 0.6272325, 0.6171434,
	0.6072195, 0.5974532, 0.58783704, 0.5783647, 0.56903,
	0.5598274, 0.5507518, 0.54179835, 0.5329627, 0.52424055,
	0.5156282, 0.50712204, 0.49871865, 0.49041483, 0.48220766,
	0.4740943, 0.46607214, 0.4581387, 0.45029163, 0.44252872,
	0.43484783, 0.427247, 0.41972435, 0.41227803, 0.40490642,
	0.39760786, 0.3903808, 0.3832238, 0.37613547, 0.36911446,
	0.3621595, 0.35526937, 0.34844297, 0.34167916, 0.33497685,
	0.3283351, 0.3217529, 0.3152294, 0.30876362, 0.30235484,
	0.29600215, 0.28970486, 0.2834622, 0.2772735, 0.27113807,
	0.2650553, 0.25902456, 0.2530453, 0.24711695, 0.241239,
	0.23541094, 0.22963232, 0.2239027, 0.21822165, 0.21258877,
	0.20700371, 0.20146611, 0.19597565, 0.19053204, 0.18513499,
	0.17978427, 0.17447963, 0.1692209, 0.16400786, 0.15884037,
	0.15371831, 0.14864157, 0.14361008, 0.13862377, 0.13368265,
	0.12878671, 0.12393598, 0.119130544, 0.11437051, 0.10965602,
	0.104987256, 0.10036444, 0.095787846, 0.0912578, 0.08677467,
	0.0823389, 0.077950984, 0.073611505, 0.06932112, 0.06508058,
	0.06089077, 0.056752663, 0.0526674, 0.048636295, 0.044660863,
	0.040742867, 0.03688439, 0.033087887, 0.029356318,
	0.025693292, 0.022103304, 0.018592102, 0.015167298,
	0.011839478, 0.008624485, 0.005548995, 0.0026696292,
}
