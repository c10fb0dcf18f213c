package fleet

import (
	"testing"
	"time"

	"pictor/internal/app"
)

// BenchmarkFaultChurnBookkeeping measures the pure fault-tolerance
// bookkeeping path — departures, crash evictions, retry-queue drains,
// offers and brown-out pressure over a full churn horizon — with no
// machine execution attached. This is the per-epoch overhead the fault
// subsystem adds to every churn trial, so it is pinned in benchguard.
func BenchmarkFaultChurnBookkeeping(b *testing.B) {
	const epochs = 16
	stream, err := ChurnStream(MixHeavy, 3.0, 2.5, epochs, 1)
	if err != nil {
		b.Fatal(err)
	}
	timeline, err := FaultStream(4, 3.0, 1.0, epochs, 1)
	if err != nil {
		b.Fatal(err)
	}
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sessions are reused across iterations: reset the mutable
		// lifecycle state so every iteration does identical work.
		for _, arr := range stream {
			for _, s := range arr {
				s.Machine, s.Tier = -1, 0
			}
		}
		f := NewHetero(4, []float64{8, 4})
		c := NewChurn(f, pol)
		c.Retry = RetryPolicy{MaxAttempts: 3, BackoffEpochs: 1}
		for e := 0; e < epochs; e++ {
			c.DepartDue(e)
			for mi, m := range f.Machines {
				st := timeline[mi][e]
				if st == MachineDown && m.State != MachineDown {
					m.State = st
					c.EvictAll(mi, e)
					continue
				}
				m.State = st
			}
			c.RetryDue(e)
			for _, s := range stream[e] {
				c.Offer(s, e)
			}
			for mi := range f.Machines {
				if c.DegradeToFit(mi) == 0 {
					c.UpgradeOne(mi)
				}
			}
		}
	}
}

// BenchmarkPlacement measures one arrival's placement per policy over
// fleets of 1k, 10k and 100k machines with core classes 8,4. ns/op is
// an arrival on an admitting fleet: machine i holds i%3 residents, and
// each placed request is released again, so every iteration sees the
// same fleet (the round-robin cursor still advances). reject-ns/arrival
// is the same fleet saturated — Overcommit lowered until no machine has
// room — which times the rejection path. roundrobin, leastcount and
// leastdemand grow with log M; binpack walks the fleet, so it grows
// with M.
func BenchmarkPlacement(b *testing.B) {
	suite := app.PaperSuite()
	it := NewInterference()
	for i, x := range suite {
		for j, y := range suite {
			it.Set(x.Name, y.Name, 0.1*float64((i+j)%3))
		}
	}
	sizes := []struct {
		name string
		m    int
	}{{"M=1k", 1000}, {"M=10k", 10000}, {"M=100k", 100000}}
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			for _, size := range sizes {
				b.Run(size.name, func(b *testing.B) {
					f := NewHetero(size.m, []float64{8, 4})
					for i, m := range f.Machines {
						for j := 0; j < i%3; j++ {
							m.place(&suite[(i+j)%len(suite)])
						}
					}
					pol, err := NewPolicy(name, it)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if mi := f.placeOne(&suite[i%len(suite)], pol); mi >= 0 {
							m := f.Machines[mi]
							m.release(len(m.Placed) - 1)
						}
					}
					b.StopTimer()
					f.Overcommit = 0.01
					start := time.Now()
					for i := 0; i < b.N; i++ {
						if f.placeOne(&suite[i%len(suite)], pol) >= 0 {
							b.Fatal("a saturated fleet admitted a request")
						}
					}
					b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "reject-ns/arrival")
				})
			}
		})
	}
}
