package core

import (
	"fmt"
	"math"
	"testing"

	"pictor/internal/exp"
)

// TestSeedKeyMatchesSprintfKey pins the byte-built per-epoch seed keys
// to the formatted keys they replaced: for both engines' key shapes and
// a spread of (session or machine, epoch, rep) triples — zero, single-
// and multi-digit, large values — the appended key must hash to the
// same DeriveSeed value as fmt.Sprintf's, because goldens pin every
// seed derived from it.
func TestSeedKeyMatchesSprintfKey(t *testing.T) {
	ids := []int{0, 1, 7, 9, 10, 42, 99, 100, 999, 1000, 12345, 999999, 1000000, 123456789, math.MaxInt32, math.MaxInt64}
	epochs := []int{0, 1, 5, 9, 10, 23, 100, 1439, 100000, math.MaxInt32}
	formats := map[string]string{
		surrogateKeyPrefix: "fleet/surrogate/s%d/e%d",
		churnKeyPrefix:     "fleet/churn/m%d/e%d",
	}
	var k seedKey
	for prefix, format := range formats {
		for _, base := range []int64{0, 1, -7, 0x5EEDFACE} {
			for _, id := range ids {
				for _, e := range epochs {
					for rep := 0; rep <= 3; rep++ {
						want := exp.DeriveSeed(base, fmt.Sprintf(format, id, e), rep)
						if got := k.derive(base, prefix, id, e, rep); got != want {
							t.Fatalf("key %q (base %d, rep %d): byte-built seed %d, Sprintf seed %d",
								fmt.Sprintf(format, id, e), base, rep, got, want)
						}
					}
				}
			}
		}
	}
}
