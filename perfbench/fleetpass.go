package main

import (
	"fmt"
	"time"

	"pictor/internal/app"
	"pictor/internal/core"
	"pictor/internal/engine"
	"pictor/internal/exp"
	"pictor/internal/fleet"
	"pictor/internal/sim"
)

// fleetPass replays each fleet trial's lifecycle on the global event
// kernel through a benchmark-owned engine.FleetPortal, timing every call
// into the fleet layer. It builds the fleet, arrival source and fault
// timeline from the trial's shape and seed the way the churn executor
// does, so it offers the same arrivals (the run checks the count against
// the traced iteration's epoch sink). It cannot reach the surrogate
// engine or the migration and brown-out controllers, which sit behind
// core's unexported portal: tail machines execute nothing here, and the
// controllers never run. Their cost shows in the traced profile instead.
// A full-fidelity cohort executes per-frame clusters as the executor's
// full engine does, which counts its frames.
type fleetPass struct {
	f        *fleet.Fleet
	c        *fleet.Churn
	src      *fleet.ChurnSource
	timeline [][]fleet.MachineState
	epochs   int
	cohort   int // machines [0, cohort) run per-frame clusters
	t        exp.Trial
	*passStats
}

// passStats accumulates the fleet pass's timings and counts over every
// fleet trial of a spec.
type passStats struct {
	next, depart, fault, retry time.Duration
	placeOK, placeRej          time.Duration
	execute, handlers          time.Duration
	runChurn                   time.Duration
	offers, placed             int
	retried, recovered         int
	events                     int
	frames                     float64
}

// timed runs fn and adds its duration to *d and to the handler total.
func (p *fleetPass) timed(d *time.Duration, fn func()) {
	start := time.Now()
	fn()
	el := time.Since(start)
	*d += el
	p.handlers += el
}

func (p *fleetPass) Machines() int { return len(p.f.Machines) }
func (p *fleetPass) Epochs() int   { return p.epochs }

func (p *fleetPass) Depart(e int) {
	p.events++
	p.timed(&p.depart, func() { p.c.DepartDue(e) })
}

// Fault applies the epoch's machine states as the churn executor does:
// a machine entering Down evicts its residents.
func (p *fleetPass) Fault(e int) {
	p.events++
	if p.timeline == nil {
		return
	}
	p.timed(&p.fault, func() {
		for mi, m := range p.f.Machines {
			st := p.timeline[mi][e]
			if st == fleet.MachineDown && m.State != fleet.MachineDown {
				m.State = st
				p.c.EvictAll(mi, e)
				continue
			}
			m.State = st
		}
	})
}

func (p *fleetPass) Retry(e int) {
	p.events++
	p.timed(&p.retry, func() {
		r, ok := p.c.RetryDue(e)
		p.retried += r
		p.recovered += ok
	})
}

// Arrive times its whole body as handler time, like the other phases,
// and within it the source and every offer: admitted and rejected
// offers cost differently (a rejection scans every machine).
func (p *fleetPass) Arrive(e int) {
	p.events++
	start := time.Now()
	defer func() { p.handlers += time.Since(start) }()
	batch := p.src.Next(e)
	p.next += time.Since(start)
	for _, s := range batch {
		p.offers++
		t0 := time.Now()
		ok := p.c.Offer(s, e)
		el := time.Since(t0)
		if ok {
			p.placed++
			p.placeOK += el
		} else {
			p.placeRej += el
		}
	}
}

func (p *fleetPass) Gauge(int)                             { p.events++ }
func (p *fleetPass) Collect(int, int, engine.MachineEpoch) {}
func (p *fleetPass) React(int)                             { p.events++ }

// EngineFor returns the pass itself for live cohort machines and nil for
// the rest (down machines, and the surrogate tail it cannot reach).
func (p *fleetPass) EngineFor(_, mi int) engine.SessionEngine {
	p.events++
	if mi >= p.cohort || p.f.Machines[mi].State == fleet.MachineDown {
		return nil
	}
	return p
}

// AdvanceEpoch runs one cohort machine's per-frame cluster with the
// executor's per-(machine, epoch) seed.
func (p *fleetPass) AdvanceEpoch(e, mi int) engine.MachineEpoch {
	var me engine.MachineEpoch
	p.timed(&p.execute, func() {
		m := p.f.Machines[mi]
		cl := core.NewCluster(core.Options{
			Seed:  exp.DeriveSeed(p.t.Seed, fmt.Sprintf("fleet/churn/m%d/e%d", mi, e), 0),
			Cores: int(m.Cores + 0.5),
		})
		for _, prof := range m.Placed {
			cl.AddInstance(core.NewInstanceConfig(prof, core.HumanDriver()))
		}
		cl.Run(sim.DurationOfSeconds(p.t.Warmup), sim.DurationOfSeconds(p.t.Measure))
		for _, inst := range cl.Instances {
			p.frames += inst.Result().ServerFPS * p.t.Measure
		}
		me.PowerWatts = cl.TotalPowerWatts()
	})
	return me
}

// newFleetPass builds the pass for one churn trial (rep 0), deriving the
// arrival and fault seeds as the churn executor does.
func newFleetPass(t exp.Trial, st *passStats) (*fleetPass, error) {
	sh := *t.Fleet
	suite, err := app.Resolve(sh.Profiles)
	if err != nil {
		return nil, err
	}
	streamKey := fmt.Sprintf("fleet/churn|%s|rate=%g|dur=%g|epochs=%d",
		sh.Mix, sh.ArrivalRate, sh.MeanSessionEpochs, sh.Epochs)
	if sh.Profiles != "" {
		streamKey += "|profiles=" + sh.Profiles
	}
	if sh.Scheduled() {
		streamKey += fmt.Sprintf("|sched=%s|peak=%g|period=%d", sh.RateSchedule, sh.PeakRate, sh.PeriodEpochs)
	}
	src, err := fleet.NewChurnSource(fleet.ArrivalConfig{
		Suite: suite, Mix: fleet.Mix(sh.Mix),
		Schedule: sh.RateSchedule, Rate: sh.ArrivalRate,
		PeakRate: sh.PeakRate, PeriodEpochs: sh.PeriodEpochs,
		MeanSessionEpochs: sh.MeanSessionEpochs, Epochs: sh.Epochs,
		Seed: exp.DeriveSeed(t.Seed, streamKey, 0),
	})
	if err != nil {
		return nil, err
	}
	classes, err := fleet.ParseCoreClasses(sh.CoreClasses)
	if err != nil {
		return nil, err
	}
	pol, err := fleet.NewPolicy(sh.Policy, nil)
	if err != nil {
		return nil, err
	}
	f := fleet.NewHetero(sh.Machines, classes)
	c := fleet.NewChurn(f, pol)
	c.Retry = fleet.RetryPolicy{MaxAttempts: sh.RetryAttempts, BackoffEpochs: sh.RetryBackoffEpochs}
	c.Pool = src
	p := &fleetPass{f: f, c: c, src: src, epochs: sh.Epochs, cohort: len(f.Machines), t: t, passStats: st}
	if sh.SurrogateTail {
		p.cohort = sh.FidelitySampled
	}
	if sh.Faulty() {
		faultKey := fmt.Sprintf("fleet/faults|mtbf=%g|mttr=%g|m=%d|epochs=%d",
			sh.MTBFEpochs, sh.MTTREpochs, len(f.Machines), sh.Epochs)
		p.timeline, err = fleet.FaultStream(len(f.Machines), sh.MTBFEpochs, sh.MTTREpochs,
			sh.Epochs, exp.DeriveSeed(t.Seed, faultKey, 0))
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// engineOverhead is the kernel's own time: the RunChurn passes minus the
// portal handlers they dispatched.
func (t *passStats) engineOverhead() float64 { return (t.runChurn - t.handlers).Seconds() }

// layerTime is the fleet pass's time in fleet-layer calls: every handler
// except the cohort's per-frame execution.
func (t *passStats) layerTime() time.Duration { return t.handlers - t.execute }

// runFleetPass runs the pass over every fleet trial of the spec; grids
// have none and return zero totals.
func runFleetPass(spec core.ExperimentSpec, spans *spanLog) (*passStats, error) {
	st := &passStats{}
	if !fleetKind(spec.Kind) {
		return st, nil
	}
	for _, t := range spec.Trials() {
		p, err := newFleetPass(t, st)
		if err != nil {
			return nil, fmt.Errorf("fleet pass %s: %w", t.ID, err)
		}
		end := spans.begin("fleetpass/" + t.ID)
		start := time.Now()
		engine.RunChurn(p, p)
		st.runChurn += time.Since(start)
		end()
	}
	return st, nil
}
