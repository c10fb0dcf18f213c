package main

import (
	"math/rand"
	"sort"
	"time"

	"pictor/internal/agent"
	"pictor/internal/codec"
	"pictor/internal/core"
	"pictor/internal/exp"
	"pictor/internal/nn"
	"pictor/internal/scene"
	"pictor/internal/sim"
	"pictor/internal/trace"
)

// frameCosts are per-call host costs of the per-frame layers, plus the
// counts of frames and inferences the traced grid iteration simulated,
// which scale them into an estimate of each layer's share.
type frameCosts struct {
	renderNs, detectNs, lstmNs, compressNs, tagNs, eventNs, firstDrawNs float64
	frames, detects                                                     float64
}

// lstmHidden is the intelligent client's LSTM width (agent's models use
// a 14-unit LSTM over agent.FeatureSize inputs).
const lstmHidden = 14

// perCall times fn in batches of calls and returns the median cost per
// call in nanoseconds. Each batch grows until it takes at least 10 ms.
func perCall(fn func(i int)) float64 {
	const batches = 5
	n := 1
	var costs []float64
	for i := 0; len(costs) < batches; {
		start := time.Now()
		for j := 0; j < n; j++ {
			fn(i)
			i++
		}
		el := time.Since(start)
		if el < 10*time.Millisecond {
			n *= 2
			continue
		}
		costs = append(costs, float64(el.Nanoseconds())/float64(n))
	}
	sort.Float64s(costs)
	return costs[len(costs)/2]
}

// runFramePass times single calls into the per-frame modules on the
// workload's profiles, cycling through them, and counts the frames and
// model inferences of the traced iteration's grid units.
func runFramePass(spec core.ExperimentSpec, ti tracedIteration) frameCosts {
	var fc frameCosts
	suite := specSuite(spec)
	rng := sim.NewRNG(1)
	scenes := make([]*scene.Scene, len(suite))
	for i, p := range suite {
		scenes[i] = scene.New(p.Dynamics, sim.NewRNG(int64(i+1)))
	}
	actions := rand.New(rand.NewSource(1))
	frame := func(i int) *scene.Frame {
		k := i % len(suite)
		scenes[k].Step(scene.Action(actions.Intn(int(scene.NumActions))))
		return scenes[k].Render(int64(i), suite[k].Width, suite[k].Height)
	}
	fc.renderNs = perCall(func(i int) { frame(i).Release() })

	// Inference cost does not depend on the trained weights, so untrained
	// models stand in for the trained ones without the training cost.
	models := agent.NewModels(1)
	frames := make([]*scene.Frame, len(suite))
	for i := range frames {
		frames[i] = frame(i)
	}
	fc.detectNs = perCall(func(i int) { models.Detect(frames[i%len(frames)].Pixels) })
	lstm := nn.NewLSTM(agent.FeatureSize, lstmHidden, rand.New(rand.NewSource(1)))
	feats := agent.Features(models.Detect(frames[0].Pixels))
	fc.lstmNs = perCall(func(int) { lstm.Step(feats) })
	cd := codec.Default()
	fc.compressNs = perCall(func(i int) { cd.Compress(frames[i%len(frames)], rng) })
	tags := []uint64{1, 2, 3}
	var saved []float64
	fc.tagNs = perCall(func(i int) {
		px := frames[i%len(frames)].Pixels
		saved = trace.EmbedTags(px, tags, saved[:0])
		trace.ExtractTags(px)
		copy(px, saved)
	})
	for _, f := range frames {
		f.Release()
	}

	// Kernel events: 64 self-rescheduling chains keep the queue at a
	// realistic depth; the cost covers scheduling and dispatch.
	fc.eventNs = perCall(func() func(int) {
		k := sim.NewKernel()
		return func(i int) {
			k.After(sim.Duration(1+i%64), func() {})
			if i%64 == 63 {
				k.Run()
			}
		}
	}())
	fc.firstDrawNs = perCall(func(i int) { sim.FirstLogNormal(int64(i), 10, 0.05) })

	for i, t := range ti.trials {
		for j, is := range t.Instances {
			if j >= len(ti.results[i].Results) {
				break
			}
			r := ti.results[i].Results[j]
			fc.frames += r.ServerFPS * t.Measure
			if is.Driver == exp.DriverIC || is.Driver == exp.DriverSlowMotion {
				fc.detects += r.ClientFPS * t.Measure
			}
		}
	}
	return fc
}
