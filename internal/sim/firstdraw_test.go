package sim

import (
	"math"
	"testing"
)

// firstDrawTestSeeds is edge seeds, a dense band around zero and a
// multiplicative spread across the seed space: enough draws to land in
// every ziggurat bucket many times over (128 buckets, 24k+ samples) and
// to take both rejection branches.
func firstDrawTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2,
		1<<31 - 1, -(1<<31 - 1), 1 << 31, -(1 << 31),
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for i := int64(-2000); i < 2000; i++ {
		seeds = append(seeds, i)
	}
	for i := int64(0); i < 20000; i++ {
		seeds = append(seeds, i*2654435761+977)
	}
	return seeds
}

// TestFirstNormalMatchesSeededRNG is the load-bearing guarantee for the
// O(1) first-draw path: for every seed FirstNormal must equal the full
// generator bit-for-bit, because the surrogate tier's jitter values are
// pinned by goldens. The replay itself must resolve every seed of the
// set — first-try accepts and both ziggurat rejection branches — so no
// seed here reaches the slow fallback.
func TestFirstNormalMatchesSeededRNG(t *testing.T) {
	seeds := firstDrawTestSeeds()
	firstTry, wedge, base := 0, 0, 0
	for _, s := range seeds {
		want := NewRNG(s).Normal(0, 1)
		v, path, ok := replayNormal(s, firstDrawK)
		if !ok {
			t.Fatalf("replay of seed %d needs more than %d outputs", s, firstDrawK)
		}
		if v != want {
			t.Fatalf("replay of seed %d = %v (path %b), seeded RNG draws %v", s, v, path, want)
		}
		if got := FirstNormal(s); got != want {
			t.Fatalf("FirstNormal(%d) = %v, seeded RNG draws %v", s, got, want)
		}
		if path == 0 {
			firstTry++
		}
		if path&pathWedge != 0 {
			wedge++
		}
		if path&pathBase != 0 {
			base++
		}
	}
	if firstDrawSlow {
		t.Fatal("verification demoted FirstNormal to the slow path")
	}
	if wedge == 0 || base == 0 {
		t.Fatalf("seed set hit the wedge branch %d times and the base strip %d times; both must be covered", wedge, base)
	}
	// The ziggurat accepts the first iteration for ~97% of seeds (2.75%
	// rejection, measured over 2M seeds); anything below 90% means the
	// tables or the register reconstruction are wrong in a way that
	// happens to still match.
	ratio := float64(firstTry) / float64(len(seeds))
	if ratio < 0.9 {
		t.Fatalf("first try accepted only %.1f%% of seeds", 100*ratio)
	}
	t.Logf("%d seeds: %.2f%% first-try accepts, %d wedge, %d base strip", len(seeds), 100*ratio, wedge, base)
}

// TestReplayMatchesSourceOutputs checks the reconstruction under the
// ziggurat: every one of the firstDrawK replayed outputs equals the
// seeded source's Int63 sequence, so each table row is exercised even
// though the normal draws of these seeds read at most five outputs.
func TestReplayMatchesSourceOutputs(t *testing.T) {
	seeds := firstDrawTestSeeds()
	for i := 0; i < len(seeds); i += 7 {
		if !replayMatchesSource(seeds[i]) {
			t.Fatalf("replayed outputs of seed %d diverge from the seeded source", seeds[i])
		}
	}
}

// TestFirstNormalFallsBackPastCap caps the replay below the outputs a
// rejection needs: those seeds must report !ok from the replay and
// still draw the generator's exact value through the fallback.
func TestFirstNormalFallsBackPastCap(t *testing.T) {
	fallbacks := 0
	for _, s := range firstDrawTestSeeds() {
		_, path, ok := replayNormal(s, 1)
		if ok != (path == 0) {
			t.Fatalf("seed %d: one-output replay ok=%v with path %b", s, ok, path)
		}
		if !ok {
			fallbacks++
		}
		if got, want := firstNormal(s, 1), NewRNG(s).Normal(0, 1); got != want {
			t.Fatalf("firstNormal(%d, 1) = %v, seeded RNG draws %v", s, got, want)
		}
	}
	if fallbacks == 0 {
		t.Fatal("no seed exceeded a one-output replay: the fallback was never exercised")
	}
}

// TestFirstDrawCheckSeedsCoverRejections pins verifyFirstDraw's reach:
// its few hundred seeds include both rejection branches, so a
// toolchain divergence there demotes to the slow path too.
func TestFirstDrawCheckSeedsCoverRejections(t *testing.T) {
	seeds := firstDrawCheckSeeds()
	wedge, base := 0, 0
	for _, s := range seeds {
		_, path, _ := replayNormal(s, firstDrawK)
		if path&pathWedge != 0 {
			wedge++
		}
		if path&pathBase != 0 {
			base++
		}
	}
	if wedge < 128 || base < 16 || len(seeds) > 400 {
		t.Fatalf("%d check seeds: %d wedge (want >= 128), %d base strip (want >= 16), at most 400 seeds", len(seeds), wedge, base)
	}
}

// TestFirstLogNormalMatchesLogNormalAround pins the jitter-shaped
// wrapper, including the non-positive-median guard.
func TestFirstLogNormalMatchesLogNormalAround(t *testing.T) {
	for i := int64(0); i < 500; i++ {
		s := i*40503 + 7
		if got, want := FirstLogNormal(s, 1, 0.05), NewRNG(s).LogNormalAround(1, 0.05); got != want {
			t.Fatalf("FirstLogNormal(%d) = %v, LogNormalAround draws %v", s, got, want)
		}
	}
	if v := FirstLogNormal(3, 0, 0.05); v != 0 {
		t.Fatalf("non-positive median must clamp to 0, got %v", v)
	}
	if v := FirstLogNormal(3, -2, 0.05); v != 0 {
		t.Fatalf("negative median must clamp to 0, got %v", v)
	}
}
