package main

import (
	"math"
	"runtime"
	"time"
)

// Host time on a shared machine moves in regimes that last minutes, and
// a regime can slow every workload by 20% or more. Two reference kernels,
// run after each timed iteration and after each set-up sample, measure
// how fast the host runs at that moment; dividing by their slowdown
// turns host seconds into seconds at the nominal host speed. The kernels
// are the benchmark's own code, which a change to the program does not
// touch; they allocate nothing and run after a forced collection, so the
// program's heap and collector do not slow them either.

// Nominal kernel seconds: their typical time on a quiet 2-core Intel
// Xeon with go1.24, where normalised seconds match host seconds.
const (
	refChainNominal = 0.054
	refQueueNominal = 0.072
)

var refSink float64

// refChain is a dependent floating-point recurrence: it measures how
// fast the core retires one long dependency chain.
func refChain() {
	x := 0.5
	for i := 0; i < 20_000_000; i++ {
		x = x*0.9999 + 0.00001*float64(i&7)
	}
	refSink += x
}

// refEvent is one pending event of the refQueue kernel.
type refEvent struct {
	t  float64
	id int32
}

var (
	refHeap [4096]refEvent
	refLoad [2048]float64
)

// refQueue is a small discrete-event loop over fixed arrays: a binary
// heap of events and a least-loaded scan over a table, the shape of the
// simulator's own event and placement loops.
func refQueue() {
	rng := uint64(88172645463325252)
	uniform := func() float64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng>>11) / (1 << 53)
	}
	n := len(refHeap)
	for i := range refHeap {
		refHeap[i] = refEvent{t: uniform(), id: int32(i)}
	}
	for i := n/2 - 1; i >= 0; i-- {
		refSiftDown(i, n)
	}
	for i := range refLoad {
		refLoad[i] = 0
	}
	for i := 0; i < 300_000; i++ {
		e := refHeap[0]
		slot := int(e.id) % len(refLoad)
		refLoad[slot] += e.t * 0.001
		best := slot
		for j := 1; j < 16; j++ {
			c := (slot + j*131) % len(refLoad)
			if refLoad[c] < refLoad[best] {
				best = c
			}
		}
		refLoad[best] += 0.01
		refHeap[0] = refEvent{t: e.t - math.Log(1-uniform()), id: e.id + 1}
		refSiftDown(0, n)
	}
	refSink += refLoad[3]
}

func refSiftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && refHeap[r].t < refHeap[l].t {
			m = r
		}
		if refHeap[i].t <= refHeap[m].t {
			return
		}
		refHeap[i], refHeap[m] = refHeap[m], refHeap[i]
		i = m
	}
}

// hostSlowdown runs both kernels and returns the geometric mean of their
// times over the nominal ones: 1 on a quiet host, above 1 on a slow one.
func hostSlowdown() float64 {
	runtime.GC()
	timeOf := func(fn func()) float64 {
		start := time.Now()
		fn()
		return time.Since(start).Seconds()
	}
	chain := timeOf(refChain) / refChainNominal
	queue := timeOf(refQueue) / refQueueNominal
	return math.Sqrt(chain * queue)
}
