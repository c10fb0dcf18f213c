// Command perfbench is Pictor's performance benchmark. Each workload is
// one core.RunSpec call repeated in a single process with runner
// parallelism 1; a run reports the end-to-end metrics of BENCHMARK.json
// (untraced, host times normalised by reference.go's kernels), or with
// --trace 1 the per-layer metrics measured by timing calls into each
// module's public functions from outside.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines above it name every
// metric with its unit, plus the output digest and host context.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"pictor/internal/app"
	"pictor/internal/core"
	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/stats"
)

// workload is one benchmark input: an experiment spec built from the
// seed.
type workload struct {
	name string
	spec func(seed int64) core.ExperimentSpec
}

func intp(v int) *int         { return &v }
func seedp(v int64) *int64    { return &v }
func fleetKind(k string) bool { return k == core.SpecChurn || k == core.SpecFaults }

// workloads holds the benchmark's inputs. Why each was chosen is recorded
// in BENCHMARK.json next to the layers it loads.
var workloads = []workload{
	{
		// The paper's own evaluation grid over its six profiles: all the
		// work is per-frame simulation (scene, CNN/LSTM, codec, tracer,
		// event kernel); the fleet layers are idle.
		name: "paper-grid",
		spec: func(seed int64) core.ExperimentSpec {
			return core.ExperimentSpec{Kind: core.SpecGrid, MaxInstances: 2, Seconds: 15, Seed: seedp(seed)}
		},
	},
	{
		// A scaled-down diurnal 1M sweep: an all-surrogate streamed fleet
		// under round-robin, unsaturated at the trough and saturated at
		// the peak, run static and with the migration controller.
		name: "diurnal-roundrobin",
		spec: func(seed int64) core.ExperimentSpec {
			return core.ExperimentSpec{
				Kind: core.SpecChurn, Machines: 2000, Policy: fleet.PolicyRoundRobin,
				Mix: string(fleet.MixHeavy), CoreClasses: "8,4",
				Epochs: 40, Rate: 2000, Duration: 1, Schedule: fleet.ScheduleDiurnal, Peak: 4000, Period: 40,
				Fidelity: intp(0), Stream: true,
				Seconds: 5, Warmup: 1, Seed: seedp(seed),
			}
		},
	},
	{
		// A near-saturated faulty fleet under least-demand: the scan
		// placement path, crash/evict/retry/degrade bookkeeping, and a
		// two-machine full-fidelity cohort beside a surrogate tail.
		name: "faults-leastdemand",
		spec: func(seed int64) core.ExperimentSpec {
			return core.ExperimentSpec{
				Kind: core.SpecFaults, Machines: 2000, Policy: fleet.PolicyLeastDemand,
				Mix: string(fleet.MixHeavy), CoreClasses: "8,4",
				Epochs: 20, Rate: 1500, Duration: 2,
				MTBF: 20, MTTR: 2, Retries: 2, Degrade: true,
				Fidelity: intp(2), Stream: true,
				Seconds: 5, Warmup: 1, Seed: seedp(seed),
			}
		},
	},
}

// specSuite is the workload set of a normalized spec (Normalize has
// already rejected a selection app.Resolve cannot resolve).
func specSuite(spec core.ExperimentSpec) []app.Profile {
	ps, _ := app.Resolve(spec.Profiles)
	return ps
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// warmSpec shrinks a fleet spec to two machines and one epoch: running it
// calibrates the surrogate curves (and any other per-process cache) for
// the spec's suite and policy without doing the workload's work.
func warmSpec(s core.ExperimentSpec) core.ExperimentSpec {
	s.Machines, s.Epochs, s.Rate, s.Duration = 2, 1, 1, 1
	s.Schedule, s.Peak, s.Period = "", 0, 0
	s.Fidelity = intp(0)
	return s
}

// setup does the one-off work before the first timed iteration: training
// the intelligent client's models for every profile of a grid, or the
// surrogate calibration warm-up of a fleet spec. spans, when non-nil,
// receives one span per call.
func setup(spec core.ExperimentSpec, spans *spanLog) error {
	if !fleetKind(spec.Kind) {
		for _, p := range specSuite(spec) {
			end := spans.begin("core.TrainedModels/" + p.Name)
			core.TrainedModels(p)
			end()
		}
		return nil
	}
	end := spans.begin("core.calibrate")
	defer end()
	_, err := core.RunSpec(warmSpec(spec), 1)
	return err
}

// setupShare caps the run time that set-up samples take, as a share of
// the time spent in timed iterations. Set-up fills process-wide caches
// (trained models, calibrated surrogate curves), so each extra sample
// runs in a fresh process; the samples are taken between iterations, so
// setup_s and wall_s see the same host conditions. A fleet calibration
// (about 0.2 s) is sampled after every iteration; the grid's model
// training (seconds) after every few.
const setupShare = 0.5

// minSetups keeps the set-up median meaningful on a short run.
const minSetups = 3

// setupSample is one timed set-up and the host slowdown measured right
// after it, in the same process.
type setupSample struct {
	seconds, slowdown float64
}

func timedSetup(spec core.ExperimentSpec) (setupSample, error) {
	start := time.Now()
	if err := setup(spec, nil); err != nil {
		return setupSample{}, fmt.Errorf("set-up: %w", err)
	}
	return setupSample{seconds: time.Since(start).Seconds(), slowdown: hostSlowdown()}, nil
}

// childSetup re-runs set-up in a fresh copy of this program, which
// prints the sample as two numbers.
func childSetup(w string, seed int64) (setupSample, error) {
	self, err := os.Executable()
	if err != nil {
		return setupSample{}, err
	}
	out, err := exec.Command(self, "--setup-only", "--workload", w, "--seed", strconv.FormatInt(seed, 10)).Output()
	if err != nil {
		return setupSample{}, fmt.Errorf("set-up child: %w", err)
	}
	var s setupSample
	if _, err := fmt.Sscan(string(out), &s.seconds, &s.slowdown); err != nil {
		return setupSample{}, fmt.Errorf("set-up child output %q: %w", out, err)
	}
	return s, nil
}

// iteration is one timed RunSpec call and what it produced. slowdown is
// the host slowdown measured right after it.
type iteration struct {
	wall, cpu float64
	slowdown  float64
	units     int
	failed    int
	digest    string
	// rowsDigest hashes only a grid's per-instance rows, the part of the
	// outcome the traced run can rebuild from its units.
	rowsDigest string
	summary    simSummary
	mem        memDelta
}

// memDelta is the Go runtime's allocation and GC counters over one
// iteration.
type memDelta struct {
	allocMB, allocs, gcs, pauseMs float64
}

// runOnce executes the spec once. A panic inside RunSpec or an error it
// returns fails every unit of the iteration; a broken output invariant
// fails the units it names.
func runOnce(spec core.ExperimentSpec, units int) (it iteration) {
	it.units = units
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out core.SpecOutcome
	cpu0 := cpuSeconds()
	start := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(os.Stderr, "perfbench: RunSpec panicked: %v\n", r)
				it.failed = units
			}
		}()
		var err error
		if out, err = core.RunSpec(spec, 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: RunSpec: %v\n", err)
			it.failed = units
		}
	}()
	it.wall = time.Since(start).Seconds()
	it.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	it.mem = memDelta{
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		allocs:  float64(after.Mallocs - before.Mallocs),
		gcs:     float64(after.NumGC - before.NumGC),
		pauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	if it.failed > 0 {
		return it
	}
	it.digest = simDigest(out)
	it.rowsDigest = it.digest
	if out.Grid != nil {
		it.rowsDigest = simDigest(gridInstances(out.Grid))
	}
	var bad []string
	it.summary, bad = summarize(out)
	for _, b := range bad {
		fmt.Fprintf(os.Stderr, "perfbench: output check: %s\n", b)
	}
	it.failed = len(bad)
	if it.failed > units {
		it.failed = units
	}
	return it
}

// simSummary holds the simulated quantities an iteration reports; they
// repeat exactly for a seed.
type simSummary struct {
	work       int64   // frames (grid) or active session-epochs (fleet)
	rttMs      float64 // pooled mean simulated RTT
	clientFPS  float64 // mean simulated client FPS (grid only)
	avail      float64 // QoS-compliant share of offered work
	arrivals   int
	offered    int
	compliant  int
	qosRows    int
	instances  int
	churnCount int
}

// gridInstances lists the per-instance rows a grid outcome carries: the
// characterization sweeps and the co-location pairs, in a fixed order.
func gridInstances(g *core.SuiteGridResult) []core.InstanceResult {
	var out []core.InstanceResult
	names := make([]string, 0, len(g.Characterization))
	for n := range g.Characterization {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, rows := range g.Characterization[n] {
			out = append(out, rows...)
		}
	}
	pairs := make([][2]string, 0, len(g.Pairs))
	for p := range g.Pairs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	for _, p := range pairs {
		r := g.Pairs[p]
		out = append(out, r[0], r[1])
	}
	return out
}

// summarize derives the simulated metrics from an outcome and checks the
// workload's invariants, returning one message per broken invariant.
func summarize(out core.SpecOutcome) (s simSummary, bad []string) {
	if g := out.Grid; g != nil {
		rows := gridInstances(g)
		var rtts []stats.Summary
		for _, r := range rows {
			if r.ServerFPS <= 0 {
				bad = append(bad, fmt.Sprintf("grid instance %s produced no frames", r.Name))
			}
			s.work += int64(r.ServerFPS*out.Spec.Seconds + 0.5)
			s.clientFPS += r.ClientFPS
			if r.ClientFPS >= fleet.QoSMinFPS {
				s.qosRows++
			}
			if r.RTT.N > 0 {
				rtts = append(rtts, r.RTT)
			}
		}
		s.instances = len(rows)
		if len(rows) > 0 {
			s.clientFPS /= float64(len(rows))
			s.avail = float64(s.qosRows) / float64(len(rows))
		}
		s.rttMs = exp.PoolSummaries(rtts).Mean
		for name, o := range g.Overhead {
			if o.FPSNoTrace <= 0 || o.FPSTraced <= 0 || o.FPSTracedSB <= 0 {
				bad = append(bad, fmt.Sprintf("grid overhead trials of %s produced no frames", name))
			}
		}
		for name, c := range g.Container {
			if c.BareServerFPS <= 0 || c.ContServerFPS <= 0 {
				bad = append(bad, fmt.Sprintf("grid container trials of %s produced no frames", name))
			}
		}
		for name, o := range g.Optimization {
			if o.BaseServerFPS <= 0 || o.OptServerFPS <= 0 {
				bad = append(bad, fmt.Sprintf("grid optimization trials of %s produced no frames", name))
			}
		}
		for name, ms := range g.Methodology {
			for _, m := range ms {
				if m.RTT.N == 0 {
					bad = append(bad, fmt.Sprintf("grid methodology %s/%s measured no round trips", name, m.Method))
				}
			}
		}
		if len(rows) == 0 {
			bad = append(bad, "grid outcome holds no instance rows")
		}
		sort.Strings(bad)
		return s, bad
	}
	var rtts []stats.Summary
	for i, r := range out.Churn {
		if r.OfferedSessionEpochs <= 0 {
			bad = append(bad, fmt.Sprintf("churn trial %d offered no session-epochs", i))
		}
		if r.Availability < 0 || r.Availability > 1 {
			bad = append(bad, fmt.Sprintf("churn trial %d availability %g outside [0,1]", i, r.Availability))
		}
		if r.Rejected > r.Arrivals {
			bad = append(bad, fmt.Sprintf("churn trial %d rejected %d of %d arrivals", i, r.Rejected, r.Arrivals))
		}
		s.work += int64(r.CompliantSessionEpochs + r.QoSViolations)
		s.arrivals += r.Arrivals
		s.offered += r.OfferedSessionEpochs
		s.compliant += r.CompliantSessionEpochs
		if r.RTT.N > 0 {
			rtts = append(rtts, r.RTT)
		}
	}
	s.churnCount = len(out.Churn)
	if s.offered > 0 {
		s.avail = float64(s.compliant) / float64(s.offered)
	}
	s.rttMs = exp.PoolSummaries(rtts).Mean
	if len(out.Churn) == 0 {
		bad = append(bad, "fleet outcome holds no churn results")
	}
	return s, bad
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each as it lands.
type report struct {
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-28s %14.6g %-6s%s\n", name, v, unit, note)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minIterations keeps a median meaningful when one iteration outlasts
// the requested run length.
const minIterations = 3

func main() {
	var (
		name      = flag.String("workload", "", "workload name: paper-grid, diurnal-roundrobin or faults-leastdemand")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Float64("seconds", 20, "host seconds of timed iterations")
		traced    = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
		setupOnly = flag.Bool("setup-only", false, "run set-up once, print its seconds and exit (used for set-up samples)")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	spec, err := w.spec(*seed).Normalize()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if *setupOnly {
		s, err := timedSetup(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(s.seconds, s.slowdown)
		return
	}

	host := startHost()
	var res result
	if *traced == 1 {
		res, err = runTraced(w, spec, *seconds, host)
	} else {
		res, err = runEndToEnd(w, spec, *seconds, host)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runIterations repeats the spec until the run has measured for the
// requested seconds (and at least minIterations times). Every
// iteration's digest must equal the first successful one's. between, if
// not nil, runs after each iteration, outside its timing, and is given
// the seconds measured so far.
func runIterations(spec core.ExperimentSpec, seconds float64, between func(measured float64) error) (its []iteration, attempted, failed int, err error) {
	units := len(spec.Trials())
	ref := ""
	measured := 0.0
	for len(its) < minIterations || measured < seconds {
		it := runOnce(spec, units)
		it.slowdown = hostSlowdown()
		measured += it.wall
		if ref == "" {
			ref = it.digest
		}
		if it.failed == 0 && it.digest != ref {
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d digest %s differs from %s\n", len(its), it.digest, ref)
			it.failed = units
		}
		fmt.Printf("iteration %d: wall %.4f s, host slowdown %.3f, sim_digest %s, %d of %d units failed\n",
			len(its), it.wall, it.slowdown, it.digest, it.failed, units)
		its = append(its, it)
		attempted += it.units
		failed += it.failed
		if between != nil {
			if err := between(measured); err != nil {
				return its, attempted, failed, err
			}
		}
	}
	return its, attempted, failed, nil
}

// printSim prints an iteration's simulated outputs and input size.
func printSim(spec core.ExperimentSpec, s simSummary, digest string) {
	fmt.Printf("sim_digest %s\n", digest)
	if !fleetKind(spec.Kind) {
		fmt.Printf("input: %d grid instance rows, %d measured frames per iteration\n", s.instances, s.work)
		fmt.Printf("%-28s %14.6g %-6s  (sim)\n", "sim_client_fps", s.clientFPS, "fps")
	} else {
		fmt.Printf("input: %d churn trials, %d arrivals, %d offered and %d active session-epochs per iteration\n",
			s.churnCount, s.arrivals, s.offered, s.work)
	}
}

func runEndToEnd(w workload, spec core.ExperimentSpec, seconds float64, host *hostContext) (result, error) {
	seed := *spec.Seed
	first, err := timedSetup(spec)
	if err != nil {
		return result{}, err
	}
	setups := []setupSample{first}
	setupTotal := first.seconds
	sample := func() error {
		s, err := childSetup(w.name, seed)
		if err != nil {
			return err
		}
		setups = append(setups, s)
		setupTotal += s.seconds
		return nil
	}
	its, attempted, failed, err := runIterations(spec, seconds, func(measured float64) error {
		if setupTotal >= setupShare*measured {
			return nil
		}
		return sample()
	})
	for err == nil && len(setups) < minSetups {
		err = sample()
	}
	if err != nil {
		return result{}, err
	}
	var walls, normWalls, rates, slowdowns []float64
	var ref iteration
	for _, it := range its {
		if it.failed > 0 {
			continue
		}
		if ref.digest == "" {
			ref = it
		}
		walls = append(walls, it.wall)
		normWalls = append(normWalls, it.wall/it.slowdown)
		rates = append(rates, float64(it.summary.work)*it.slowdown/it.wall)
		slowdowns = append(slowdowns, it.slowdown)
	}
	var rawSetups, normSetups []float64
	for _, s := range setups {
		rawSetups = append(rawSetups, s.seconds)
		normSetups = append(normSetups, s.seconds/s.slowdown)
	}

	fmt.Printf("workload %s seed %d: %d iterations, %d units attempted\n", w.name, seed, len(its), attempted)
	host.print()
	printSim(spec, ref.summary, ref.digest)
	fmt.Printf("fail_ratio %g (%d of %d units)\n", float64(failed)/float64(attempted), failed, attempted)
	fmt.Printf("host seconds: set-up median %.4f s of %d: %s\n", median(rawSetups), len(rawSetups), fmtList(rawSetups))
	fmt.Printf("host seconds: iteration median %.4f s of %d: %s\n", median(walls), len(walls), fmtList(walls))
	fmt.Printf("host slowdown: median %.3f over iterations\n", median(slowdowns))

	r := newReport()
	r.add("setup_s", median(normSetups), "s", "median of normalised set-ups")
	r.add("wall_s", median(normWalls), "s", "median of normalised iterations")
	workName := "frames_per_s"
	if fleetKind(spec.Kind) {
		workName = "session_epochs_per_s"
	}
	r.add("work_per_s", median(rates), "1/s", "median over normalised iterations")
	fmt.Printf("%-28s %14.6g %-6s  (reported as work_per_s)\n", workName, median(rates), "1/s")
	r.add("peak_rss_mb", peakRSSMB(), "MB", "")
	r.add("sim_rtt_ms", ref.summary.rttMs, "ms", "sim")
	r.add("availability", ref.summary.avail, "ratio", "sim")
	return result{
		Correct:   failed == 0 && len(walls) > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	}, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
