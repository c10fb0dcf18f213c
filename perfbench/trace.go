package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"pictor/internal/app"
	"pictor/internal/core"
	"pictor/internal/exp"
)

// The traced run measures layers from outside, with tracing kept out of
// the end-to-end run:
//
//  1. spans around the benchmark's own calls: set-up, one per execution
//     unit (core.ExecuteTrial under exp.RunChecked), and one per churn
//     epoch from a benchmark-owned core.ChurnSink;
//  2. a fleet layer pass (fleetpass.go): a benchmark-owned
//     engine.FleetPortal that times the fleet lifecycle calls;
//  3. a per-frame layer pass (framepass.go) timing single calls into the
//     per-frame modules;
//  4. one CPU profile of the traced iteration, its flat time summed per
//     module, covering layers without a public boundary (the surrogate
//     engine and the migration controller behind core's portal).

// span is one timed call at a layer boundary. Parent indexes the span
// that was open when this one began (-1 at the top).
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory; they are written once, at exit. A nil
// log records nothing, so untraced code paths pass nil.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) parent() int {
	if n := len(l.open); n > 0 {
		return l.open[n-1]
	}
	return -1
}

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	i := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Parent: l.parent(), Start: time.Since(l.t0).Seconds()})
	l.open = append(l.open, i)
	return func() {
		l.spans[i].End = time.Since(l.t0).Seconds()
		l.open = l.open[:len(l.open)-1]
	}
}

// record adds a finished span under the currently open one.
func (l *spanLog) record(name string, start, end time.Time) {
	l.spans = append(l.spans, span{Name: name, Parent: l.parent(),
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds()})
}

// write stores the spans as JSON under the checkout's build directory.
func (l *spanLog) write(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return writeFile(path, b)
}

// writeFile writes b to path, creating its directory.
func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// epochSink is the benchmark's core.ChurnSink: it records when each epoch
// of a churn unit closes, and that epoch's lifecycle counts.
type epochSink struct {
	spans *spanLog
	trial string
	last  time.Time
	rows  []core.EpochResult
	durs  []time.Duration
}

func (s *epochSink) ObserveEpoch(e core.EpochResult) {
	now := time.Now()
	s.spans.record(fmt.Sprintf("core.epoch/%s/%d", s.trial, e.Epoch), s.last, now)
	s.durs = append(s.durs, now.Sub(s.last))
	s.last = now
	e.Occupancy = nil
	s.rows = append(s.rows, e)
}

func (s *epochSink) ObserveOccupancy(int, []core.MachineOccupancy) {}

// tracedIteration is one execution of the spec's trials with a span per
// unit, an epoch sink per churn trial, and a CPU profile.
type tracedIteration struct {
	wall    float64
	units   []float64
	results []core.TrialResult
	failed  int
	sinks   []*epochSink
	trials  []exp.Trial
	// Profile CPU time per module, of stacks no module claims, and of
	// every sample; procCPU is the kernel's count of the process's CPU
	// time over the same interval, an independent measure of the total.
	cpuPerMod map[string]time.Duration
	unattrCPU time.Duration
	totalCPU  time.Duration
	procCPU   time.Duration
}

func runTracedIteration(spec core.ExperimentSpec, spans *spanLog, profPath string) (tracedIteration, error) {
	cfg := spec.Config()
	trials := spec.Trials()
	ti := tracedIteration{trials: trials, sinks: make([]*epochSink, len(trials))}
	for i := range trials {
		// Windows default exactly as core.RunTrialsChecked defaults them.
		if trials[i].Measure <= 0 {
			trials[i].Measure = cfg.Seconds
			if trials[i].Warmup <= 0 {
				trials[i].Warmup = cfg.WarmupSeconds
			}
		}
		if trials[i].Fleet != nil {
			ti.sinks[i] = &epochSink{spans: spans, trial: trials[i].ID}
			trials[i].Sink = ti.sinks[i]
		}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return ti, fmt.Errorf("cpu profile: %w", err)
	}
	cpu0 := cpuSeconds()
	endIter := spans.begin("iteration")
	start := time.Now()
	res, errs := exp.RunChecked(trials, func(t exp.Trial, u exp.Unit) core.TrialResult {
		end := spans.begin("exp.unit/" + t.ID)
		defer end()
		unitStart := time.Now()
		if s := ti.sinks[u.TrialIndex]; s != nil {
			s.last = unitStart
		}
		defer func() { ti.units = append(ti.units, time.Since(unitStart).Seconds()) }()
		return core.ExecuteTrial(t, u)
	}, exp.RunOptions{Parallel: 1, Reps: 1, BaseSeed: cfg.Seed})
	ti.wall = time.Since(start).Seconds()
	endIter()
	ti.procCPU = time.Duration((cpuSeconds() - cpu0) * 1e9)
	pprof.StopCPUProfile()
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", e)
	}
	ti.failed = len(errs)
	ti.results = make([]core.TrialResult, len(res))
	for i := range res {
		ti.results[i] = res[i][0]
	}
	if err := writeFile(profPath, prof.Bytes()); err != nil {
		return ti, fmt.Errorf("write cpu profile: %w", err)
	}
	stacks, err := readProfile(profPath)
	if err != nil {
		return ti, err
	}
	ti.cpuPerMod, ti.unattrCPU, ti.totalCPU = attribute(stacks)
	return ti, nil
}

// tracedDigest renders the traced trials' results the way the untraced
// digest renders RunSpec's outcome, so the two must match: fleet kinds
// rebuild the outcome's churn list; the grid compares the per-instance
// rows (characterization sweeps and pairs) found by canonical trial key.
func tracedDigest(spec core.ExperimentSpec, ti tracedIteration) (string, error) {
	if fleetKind(spec.Kind) {
		out := core.SpecOutcome{Spec: spec}
		for _, r := range ti.results {
			if r.Churn == nil {
				return "", fmt.Errorf("traced fleet unit returned no churn result")
			}
			c := *r.Churn
			c.Epochs = nil // streamed: RunSpec retains no rows either
			out.Churn = append(out.Churn, c)
		}
		return simDigest(out), nil
	}
	byKey := map[string]core.TrialResult{}
	for i, t := range ti.trials {
		byKey[t.CanonicalKey()] = ti.results[i]
	}
	cfg := spec.Config()
	window := func(t exp.Trial) exp.Trial {
		t.Warmup, t.Measure, t.Seed = cfg.WarmupSeconds, cfg.Seconds, cfg.Seed
		return t
	}
	g := &core.SuiteGridResult{
		Characterization: map[string][][]core.InstanceResult{},
		Pairs:            map[[2]string][2]core.InstanceResult{},
	}
	suite := specSuite(spec)
	byName := map[string]app.Profile{}
	for _, p := range suite {
		byName[p.Name] = p
	}
	for _, p := range suite {
		for n := 1; n <= spec.MaxInstances; n++ {
			r, ok := byKey[window(exp.Homogeneous(p, exp.DriverHuman, n)).CanonicalKey()]
			if !ok {
				return "", fmt.Errorf("traced grid has no characterization trial %s×%d", p.Name, n)
			}
			g.Characterization[p.Name] = append(g.Characterization[p.Name], r.Results)
		}
	}
	for _, names := range core.SortedPairNamesOf(suite) {
		r, ok := byKey[window(exp.Pair(byName[names[0]], byName[names[1]])).CanonicalKey()]
		if !ok || len(r.Results) != 2 {
			return "", fmt.Errorf("traced grid has no pair trial %s+%s", names[0], names[1])
		}
		g.Pairs[names] = [2]core.InstanceResult{r.Results[0], r.Results[1]}
	}
	return simDigest(gridInstances(g)), nil
}

func runTraced(w workload, spec core.ExperimentSpec, seconds float64, host *hostContext) (result, error) {
	seed := *spec.Seed
	spans := newSpanLog()
	if err := setup(spec, spans); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var trainS, calS float64
	for _, s := range spans.spans {
		if s.Name == "core.calibrate" {
			calS += s.End - s.Start
		} else {
			trainS += s.End - s.Start
		}
	}

	// Untraced iterations: the baseline for the tracing overhead, the
	// digest the traced units must reproduce, and the Go runtime counters
	// of a plain iteration.
	its, attempted, failed, err := runIterations(spec, seconds/2, nil)
	if err != nil {
		return result{}, err
	}
	var walls, cpus, slowdowns []float64
	var ref, last iteration
	for _, it := range its {
		if it.failed > 0 {
			continue
		}
		if ref.digest == "" {
			ref = it
		}
		last = it
		walls = append(walls, it.wall)
		cpus = append(cpus, it.cpu)
		slowdowns = append(slowdowns, it.slowdown)
	}
	if ref.digest == "" {
		return result{}, fmt.Errorf("every untraced iteration failed")
	}
	refRows := ref.rowsDigest

	build := func(kind, ext string) string {
		return filepath.Join(".bench_build", fmt.Sprintf("%s-%s-seed%d.%s", kind, w.name, seed, ext))
	}
	ti, err := runTracedIteration(spec, spans, build("cpu", "pprof"))
	if err != nil {
		return result{}, err
	}
	attempted += len(ti.trials)
	failed += ti.failed
	tdig := ""
	if ti.failed == 0 {
		if tdig, err = tracedDigest(spec, ti); err != nil {
			return result{}, err
		}
	}
	if tdig != refRows {
		fmt.Fprintf(os.Stderr, "perfbench: traced digest %s differs from untraced %s\n", tdig, refRows)
		failed += len(ti.trials)
	}

	fp, err := runFleetPass(spec, spans)
	if err != nil {
		return result{}, err
	}
	fr := runFramePass(spec, ti)

	fmt.Printf("workload %s seed %d: traced run, %d untraced iterations + 1 traced\n", w.name, seed, len(its))
	host.print()
	printSim(spec, ref.summary, ref.digest)
	fmt.Printf("traced digest %s, untraced %s\n", tdig, refRows)
	fmt.Printf("fail_ratio %g (%d of %d units)\n", float64(failed)/float64(attempted), failed, attempted)

	r := newReport()
	unitSum := 0.0
	for _, u := range ti.units {
		unitSum += u
	}
	overhead := ti.wall - unitSum
	r.add("exp.units", float64(len(ti.units)), "count", "execution units in the traced iteration")
	r.add("exp.unit_s", unitSum, "s", "sum of core.ExecuteTrial spans")
	r.add("exp.overhead_s", overhead, "s", "traced iteration wall minus units")
	r.add("core.train_s", trainS, "s", "core.TrainedModels spans in set-up")
	r.add("core.calibrate_s", calS, "s", "calibration warm-up span in set-up")

	var epochS, epochMax float64
	var epochs int
	var counts struct{ arr, rej, mig, crash, evict, retry, rec, active int }
	for _, s := range ti.sinks {
		if s == nil {
			continue
		}
		for i, d := range s.durs {
			epochS += d.Seconds()
			if d.Seconds() > epochMax {
				epochMax = d.Seconds()
			}
			e := s.rows[i]
			counts.arr += e.Arrivals
			counts.rej += e.Rejected
			counts.mig += e.Migrations
			counts.crash += e.Crashes
			counts.evict += e.Evicted
			counts.retry += e.Retried
			counts.rec += e.Recovered
			counts.active += e.Active
		}
		epochs += len(s.durs)
	}
	r.add("core.epoch_s", epochS, "s", "sum of epoch spans")
	r.add("core.epoch_max_ms", 1000*epochMax, "ms", "slowest epoch")
	r.add("core.epochs", float64(epochs), "count", "")

	r.add("engine.overhead_s", fp.engineOverhead(), "s", "fleet pass RunChurn wall minus its handlers")
	r.add("engine.events", float64(fp.events), "count", "handler dispatches in the fleet pass")
	r.add("fleet.place_calls", float64(fp.offers), "count", "Churn.Offer calls in the fleet pass")
	r.add("fleet.place_s", (fp.placeOK + fp.placeRej).Seconds(), "s", "")
	r.add("fleet.place_ns", nsPer(fp.placeOK, fp.placed), "ns", "per admitted offer")
	r.add("fleet.reject_ns", nsPer(fp.placeRej, fp.offers-fp.placed), "ns", "per rejected offer")
	r.add("fleet.admit_ratio", ratio(fp.placed, fp.offers), "ratio", "placed over offered")
	r.add("fleet.next_s", fp.next.Seconds(), "s", "ChurnSource.Next")
	r.add("fleet.depart_s", fp.depart.Seconds(), "s", "Churn.DepartDue")
	r.add("fleet.fault_s", fp.fault.Seconds(), "s", "fault phase incl. Churn.EvictAll")
	r.add("fleet.retry_s", fp.retry.Seconds(), "s", "Churn.RetryDue")
	r.add("fleet.recover_ratio", ratio(fp.recovered, fp.retried), "ratio", "recovered over retried")
	r.add("fleet.arrivals", float64(counts.arr), "count", "epoch sink, traced iteration")
	r.add("fleet.rejected", float64(counts.rej), "count", "")
	r.add("fleet.migrations", float64(counts.mig), "count", "")
	r.add("fleet.crashes", float64(counts.crash), "count", "")
	r.add("fleet.evicted", float64(counts.evict), "count", "")
	r.add("fleet.retried", float64(counts.retry), "count", "")
	r.add("fleet.recovered", float64(counts.rec), "count", "")
	r.add("fleet.active_session_epochs", float64(counts.active), "count", "")

	r.add("sim.first_draw_ns", fr.firstDrawNs, "ns", "sim.FirstLogNormal")
	r.add("sim.event_ns", fr.eventNs, "ns", "sim.Kernel schedule+dispatch")
	r.add("scene.render_ns", fr.renderNs, "ns", "scene.Scene.Render")
	frames := fr.frames + fp.frames
	framesNote := "measured frames of the traced grid units"
	if fleetKind(spec.Kind) {
		framesNote = "frames of the fleet pass's cohort replay, not of the traced run"
	}
	r.add("scene.frames", frames, "count", framesNote)
	r.add("agent.detect_ns", fr.detectNs, "ns", "agent.Models.Detect")
	r.add("agent.detects", fr.detects, "count", "client frames of model-driven instances")
	r.add("nn.lstm_step_ns", fr.lstmNs, "ns", "nn.LSTM.Step")
	r.add("codec.compress_ns", fr.compressNs, "ns", "codec.Codec.Compress")
	r.add("trace.tag_ns", fr.tagNs, "ns", "trace.EmbedTags + ExtractTags")

	r.add("go.alloc_mb", last.mem.allocMB, "MB", "last untraced iteration")
	r.add("go.allocs", last.mem.allocs, "count", "")
	r.add("go.gc_count", last.mem.gcs, "count", "")
	r.add("go.gc_pause_ms", last.mem.pauseMs, "ms", "")
	r.add("proc.cpu_s", median(cpus), "s", "process CPU per untraced iteration, median")

	// Attribution: the profile charges CPU time to modules, and the kernel
	// counts the process's CPU time over the same interval. Shares are of
	// the kernel's count, so profiler stacks, standard-library-only stacks
	// and CPU time the profiler did not sample all show as unattributed.
	var layerCPU time.Duration
	for _, m := range shareModules {
		layerCPU += ti.cpuPerMod[m]
		r.add("cpu_share."+m, 100*ratioD(ti.cpuPerMod[m], ti.procCPU), "%", "of process CPU")
	}
	unattr := ti.procCPU - layerCPU
	untracedWall := median(walls)
	r.add("bench.trace_overhead_pct", 100*(ti.wall-untracedWall)/untracedWall, "%", "traced vs untraced iteration wall")
	r.add("bench.unattributed_pct", 100*ratioD(unattr, ti.procCPU), "%", "process CPU no module's profile samples cover")
	fmt.Printf("reconcile CPU: profile layers %.4f s + unattributed %.4f s (stacks %.4f s, not sampled %.4f s) = process CPU %.4f s\n",
		layerCPU.Seconds(), unattr.Seconds(), ti.unattrCPU.Seconds(), (ti.procCPU - ti.totalCPU).Seconds(), ti.procCPU.Seconds())
	layerWall := ti.wall * ratioD(layerCPU, ti.procCPU)
	fmt.Printf("reconcile wall: layers %.4f s + unattributed %.4f s = traced wall %.4f s; spans: units %.4f s + runner %.4f s\n",
		layerWall, ti.wall-layerWall, ti.wall, unitSum, overhead)
	fmt.Printf("estimated from per-call costs: scene render %.3f s, detect %.3f s\n",
		fr.renderNs*frames/1e9, fr.detectNs*fr.detects/1e9)

	// The fleet pass must replay the traced iteration's arrivals, and the
	// fleet-layer time it measures must fit inside the epochs it mirrors.
	passS := fp.layerTime().Seconds()
	coverOK := (passS <= epochS || !fleetKind(spec.Kind)) && fp.offers == counts.arr
	fmt.Printf("fleet pass layer time %.4f s vs epoch spans %.4f s, arrivals %d vs traced %d: ok=%t\n",
		passS, epochS, fp.offers, counts.arr, coverOK)
	r.add("host.slowdown", median(slowdowns), "ratio", "reference kernels over nominal, median over untraced iterations")
	r.add("host.steal_pct", host.stealPct(), "%", "")
	r.add("host.loadavg", loadAvg(), "load", "")
	r.add("host.nproc", float64(runtime.NumCPU()), "count", "")

	path := build("spans", "json")
	if err := spans.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(spans.spans), path)
	return result{
		Correct:   failed == 0 && coverOK,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	}, nil
}

func nsPer(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func ratioD(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratio(a, b int) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
