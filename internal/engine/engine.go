// Package engine is Pictor's fleet phase loop: one driver that owns
// the epoch clock and runs every machine- and session-level step
// through portal interfaces.
//
// The fleet layer used to run one simulation kernel per machine inside
// nested per-machine loops, so fidelity was uniform and sweep cost
// scaled linearly with sessions. This package inverts that structure:
// RunChurn walks one deterministic order — epoch, then the lifecycle
// phases inside it, with machines in index order inside the execute
// phase — and the *implementations* behind the portals decide how much
// each step costs. A SessionEngine may run the full per-frame
// simulation or a cheap trained surrogate; the loop neither knows nor
// cares, which is what lets a sweep mix fidelity tiers per machine and
// scale to hundreds of thousands of sessions.
//
// Like internal/exp and internal/fleet, the package is deliberately a
// leaf (it imports only internal/stats): the assembly layer
// (internal/core) implements the portals and injects them, so the
// simulator layers compose behind interfaces instead of importing each
// other — the pces/mrnes NetSimPortal pattern.
package engine

import "pictor/internal/stats"

// SessionObs is one session's epoch measurement, whatever fidelity tier
// produced it: its RTT distribution over the epoch and whether it fell
// below the interactivity floor.
type SessionObs struct {
	// RTT is the session's round-trip-time distribution for the epoch
	// (N == 0 means the session produced no observations).
	RTT stats.Summary
	// QoSViolation marks the session below the 25-FPS floor.
	QoSViolation bool
}

// MachineEpoch is one machine's epoch outcome: the measurements of its
// resident sessions plus machine-level rollups.
type MachineEpoch struct {
	// PowerWatts is the machine's modelled wall power over the epoch.
	PowerWatts float64
	// Demand echoes the predicted CPU demand the machine executed at.
	Demand float64
	// Sessions holds one observation per resident, in placement order.
	// It is valid until the engine's next AdvanceEpoch call: an engine
	// may reuse the backing array, so Collect copies what it keeps.
	Sessions []SessionObs
}

// SessionEngine advances one machine's resident sessions through one
// epoch and reports what they measured. It is the fidelity boundary:
// the full engine builds and runs a per-frame simulated cluster, the
// surrogate engine evaluates trained per-profile demand/RTT predictors
// — both behind the same three-quantity contract (advance one epoch,
// echo demand, sample RTT per session).
type SessionEngine interface {
	AdvanceEpoch(epoch, machine int) MachineEpoch
}

// EnginePicker selects the session engine for one machine-epoch — the
// fidelity-tier dispatch. Returning nil skips the machine entirely (a
// crashed machine is powered off: it executes nothing, measures
// nothing, and burns nothing).
type EnginePicker interface {
	EngineFor(epoch, machine int) SessionEngine
}

// FleetPortal is the fleet layer's lifecycle, one method per
// fleet-scope phase. RunChurn calls it in phase order; Collect
// receives each machine's measurements as that machine executes
// (machine index order, so pooled aggregates are byte-stable).
type FleetPortal interface {
	// Machines and Epochs size the loop.
	Machines() int
	Epochs() int
	Depart(epoch int)
	Fault(epoch int)
	Retry(epoch int)
	Arrive(epoch int)
	Gauge(epoch int)
	Collect(epoch, machine int, me MachineEpoch)
	React(epoch int)
}

// RunChurn drives a fleet portal over its horizon. Every epoch runs
// depart, fault, retry, arrive and gauge; then executes each machine in
// index order through the picker's fidelity dispatch (a nil engine
// skips the machine); then react. Portal methods never see the loop,
// so nothing they do can reorder it.
func RunChurn(p FleetPortal, picker EnginePicker) {
	for e := 0; e < p.Epochs(); e++ {
		p.Depart(e)
		p.Fault(e)
		p.Retry(e)
		p.Arrive(e)
		p.Gauge(e)
		for mi := 0; mi < p.Machines(); mi++ {
			if eng := picker.EngineFor(e, mi); eng != nil {
				p.Collect(e, mi, eng.AdvanceEpoch(e, mi))
			}
		}
		p.React(e)
	}
}
