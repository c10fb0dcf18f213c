package sim

import "testing"

// BenchmarkKernelEventChurn measures the scheduler's per-event cost: a
// self-sustaining chain of After calls, the shape every pipeline loop
// (app, proxy, client) imposes on the kernel.
func BenchmarkKernelEventChurn(b *testing.B) {
	k := NewKernel()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(Millisecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(Millisecond, tick)
	k.Run()
}

// BenchmarkKernelCancelChurn measures schedule+cancel pairs (timeouts
// and superseded frames cancel heavily in long simulations).
func BenchmarkKernelCancelChurn(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := k.At(k.Now()+Time(1000), fn)
		k.Cancel(id)
	}
}

var firstDrawSink float64

// BenchmarkFirstNormal measures one O(1) first draw (the surrogate
// tier's per-session-epoch jitter) over a multiplicative seed spread:
// about 2.5% of its seeds reject the ziggurat's first try, so the mean
// includes wedge and base-strip replays.
func BenchmarkFirstNormal(b *testing.B) {
	FirstNormal(0) // one-time verification stays out of the timing
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += FirstNormal(int64(i)*2654435761 + 977)
	}
	firstDrawSink = sum
}
