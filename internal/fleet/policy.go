package fleet

import (
	"fmt"

	"pictor/internal/app"
)

// Placement decides where an admitted request lands. A policy answers
// from the fleet's capacity index (see capIndex): choose receives the
// fleet, the request and its predicted demand d, and returns the fleet
// index of the chosen machine — one that is up and holds d within
// Fleet.Overcommit × its cores — or -1 to reject the request. Policies
// must be deterministic: placement feeds the deterministic experiment
// runner, so equal inputs must always produce equal choices. The
// policies are the ones this package defines (NewPolicy builds them).
type Placement interface {
	Name() string
	choose(f *Fleet, req *app.Profile, d float64) int
}

// Policy names, as accepted by NewPolicy and the CLI's -policy flag.
const (
	PolicyRoundRobin  = "roundrobin"
	PolicyLeastCount  = "leastcount"
	PolicyLeastDemand = "leastdemand"
	PolicyBinPack     = "binpack"
)

// PolicyNames lists every placement policy in comparison order.
func PolicyNames() []string {
	return []string{PolicyRoundRobin, PolicyLeastCount, PolicyLeastDemand, PolicyBinPack}
}

// NewPolicy builds a policy by name. The bin-packing policy needs the
// pair-interference table the co-location experiment produces; the
// other policies ignore it (nil is fine for them).
func NewPolicy(name string, it *Interference) (Placement, error) {
	switch name {
	case PolicyRoundRobin, "":
		return &RoundRobin{}, nil
	case PolicyLeastCount:
		return LeastLoadedCount{}, nil
	case PolicyLeastDemand:
		return LeastLoadedDemand{}, nil
	case PolicyBinPack:
		return &BinPack{Interference: it}, nil
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (have %v)", name, PolicyNames())
}

// RoundRobin cycles machines in index order, skipping full ones. It
// balances instance counts without looking at the workload at all —
// the baseline every load balancer starts from.
type RoundRobin struct {
	next int
}

func (*RoundRobin) Name() string { return PolicyRoundRobin }

// choose takes the first fitting machine at or after the cursor,
// wrapping once. The cursor advances over machine indices and only on a
// successful placement, so a temporarily-full machine does not shift
// everyone else's turn. O(C log M).
func (p *RoundRobin) choose(f *Fleet, _ *app.Profile, d float64) int {
	mi := f.index.firstFitFrom(p.next%len(f.Machines), d, f.Overcommit)
	if mi >= 0 {
		p.next = mi + 1
	}
	return mi
}

// LeastLoadedCount places on the feasible machine hosting the fewest
// instances (ties break toward the lower index). Blind to what those
// instances are — the classic "least connections" balancer.
type LeastLoadedCount struct{}

func (LeastLoadedCount) Name() string { return PolicyLeastCount }

// choose is an exact branch and bound over the index: O(C log M) when
// counts are balanced.
func (LeastLoadedCount) choose(f *Fleet, _ *app.Profile, d float64) int {
	return f.index.leastCount(d, f.Overcommit)
}

// LeastLoadedDemand places on the feasible machine with the lowest
// predicted CPU demand (PredictedCPUDemand over its placed profiles,
// ties toward the lower index). Unlike LeastLoadedCount it knows a
// Dota2 costs more than a Red Eclipse, so heterogeneous mixes spread by
// weight rather than by headcount.
type LeastLoadedDemand struct{}

func (LeastLoadedDemand) Name() string { return PolicyLeastDemand }

// choose reads each class minimum: O(C).
func (LeastLoadedDemand) choose(f *Fleet, _ *app.Profile, d float64) int {
	return f.index.leastDemand(d, f.Overcommit)
}

// BinPack is profile-affinity bin-packing: among the machines where the
// request causes the least predicted interference with what is already
// placed (scored by the pair-interference table the co-location
// experiment produces), it prefers the fullest — packing compatible
// workloads tightly so the fleet keeps whole machines free (and near
// idle power) for as long as possible.
type BinPack struct {
	// Interference scores co-location penalties; nil falls back to pure
	// demand-based packing (every pair scores zero).
	Interference *Interference
}

func (*BinPack) Name() string { return PolicyBinPack }

// binPackEps tolerates float accumulation error in BinPack's scores:
// interference cost and demand are both sums over a machine's placed
// instances, so two machines holding the same multiset of profiles in
// different placement orders (which churn migration produces routinely)
// can disagree in the last few ulps. Exact == comparison would make the
// documented "then lower index" tie-break accumulation-order fragile;
// anything within the tolerance counts as the tie it morally is.
const binPackEps = 1e-9

// choose walks the fleet in index order over the index's up machines:
// a machine's cost depends on the request's profile against each of its
// residents, and the tolerance tie-break depends on visiting order, so
// neither reduces to a per-subtree key. O(M × residents).
func (p *BinPack) choose(f *Fleet, req *app.Profile, d float64) int {
	best, bestCost, bestDemand := -1, 0.0, 0.0
	for i, m := range f.Machines {
		if !m.Fits(d, f.Overcommit) || !f.index.up(i) {
			continue
		}
		cost := 0.0
		for j := range m.Placed {
			cost += p.Interference.Score(req.Name, m.Placed[j].Name)
		}
		// Lexicographic (cost, -demand, index) with tolerance: minimal
		// interference first; among equal costs, pack the fullest
		// machine; remaining ties keep the first (lowest-index) winner.
		switch {
		case best < 0 || cost < bestCost-binPackEps:
			// Strictly lower interference.
		case cost <= bestCost+binPackEps && m.Demand > bestDemand+binPackEps:
			// Tied interference, strictly fuller machine.
		default:
			continue
		}
		best, bestCost, bestDemand = i, cost, m.Demand
	}
	return best
}
