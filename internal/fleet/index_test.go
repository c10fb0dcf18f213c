package fleet

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"pictor/internal/app"
)

// The reference placement is the fleet scan the capacity index
// replaced: list every up machine that fits, in index order, and let
// the policy pick from that list. The index must choose the same
// machine at every step.

// feasibleRef lists the machines that can hold one more request of
// demand d, in index order. Down and cold machines take no placements.
func feasibleRef(f *Fleet, d float64) []*Machine {
	var out []*Machine
	for _, m := range f.Machines {
		if m.State == MachineUp && m.Fits(d, f.Overcommit) {
			out = append(out, m)
		}
	}
	return out
}

// refPicker picks from a non-empty feasible list, returning an index
// into it.
type refPicker interface {
	pick(feasible []*Machine, req app.Profile) int
}

// refRoundRobin minimizes the wrapping distance from its cursor.
type refRoundRobin struct{ next int }

func (p *refRoundRobin) pick(feasible []*Machine, _ app.Profile) int {
	best, bestKey := 0, -1
	for i, m := range feasible {
		key := m.Index - p.next
		if key < 0 {
			key += 1 << 30
		}
		if bestKey == -1 || key < bestKey {
			best, bestKey = i, key
		}
	}
	p.next = feasible[best].Index + 1
	return best
}

type refLeastCount struct{}

func (refLeastCount) pick(feasible []*Machine, _ app.Profile) int {
	best := 0
	for i, m := range feasible {
		if len(m.Placed) < len(feasible[best].Placed) {
			best = i
		}
	}
	return best
}

type refLeastDemand struct{}

func (refLeastDemand) pick(feasible []*Machine, _ app.Profile) int {
	best := 0
	for i, m := range feasible {
		if m.Demand < feasible[best].Demand {
			best = i
		}
	}
	return best
}

type refBinPack struct{ it *Interference }

func (p refBinPack) pick(feasible []*Machine, req app.Profile) int {
	best, bestCost, bestDemand := -1, 0.0, 0.0
	for i, m := range feasible {
		cost := 0.0
		for _, placed := range m.Placed {
			cost += p.it.Score(req.Name, placed.Name)
		}
		switch {
		case best < 0 || cost < bestCost-binPackEps:
		case cost <= bestCost+binPackEps && m.Demand > bestDemand+binPackEps:
		default:
			continue
		}
		best, bestCost, bestDemand = i, cost, m.Demand
	}
	return best
}

// scanned runs a policy and the reference scan side by side at every
// placement and fails the test the moment they disagree.
type scanned struct {
	t      *testing.T
	policy Placement
	ref    refPicker
	calls  int
}

func (p *scanned) Name() string { return p.policy.Name() }

func (p *scanned) choose(f *Fleet, req *app.Profile, d float64) int {
	want := -1
	if feasible := feasibleRef(f, d); len(feasible) > 0 {
		want = feasible[p.ref.pick(feasible, *req)].Index
	}
	got := p.policy.choose(f, req, d)
	p.calls++
	if got != want {
		p.t.Fatalf("%s placement %d of %s (demand %g): index chose %d, scan chose %d",
			p.Name(), p.calls, req.Name, d, got, want)
	}
	return got
}

func newScanned(t *testing.T, name string, it *Interference) *scanned {
	pol, err := NewPolicy(name, it)
	if err != nil {
		t.Fatal(err)
	}
	var ref refPicker
	switch name {
	case PolicyRoundRobin:
		ref = &refRoundRobin{}
	case PolicyLeastCount:
		ref = refLeastCount{}
	case PolicyLeastDemand:
		ref = refLeastDemand{}
	case PolicyBinPack:
		ref = refBinPack{it: it}
	}
	return &scanned{t: t, policy: pol, ref: ref}
}

// migrateRef is MigrateOff's target search as a full scan, without the
// capacity pre-check and without moving anything: the session that
// would move and its target, or (nil, -1).
func migrateRef(c *Churn, mi int, rttMs []float64) (*Session, int) {
	res := c.sessions[mi]
	order := make([]int, len(res))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return PredictedCPUDemand(res[order[a]].Served()) > PredictedCPUDemand(res[order[b]].Served())
	})
	for _, victim := range order {
		d := PredictedCPUDemand(res[victim].Served())
		target := -1
		for _, m := range c.Fleet.Machines {
			if m.Index == mi || m.State != MachineUp || !m.Fits(d, 1) {
				continue
			}
			if rttMs[m.Index] >= rttMs[mi] || rttMs[m.Index] > QoSMaxRTTMs {
				continue
			}
			if target < 0 || rttMs[m.Index] < rttMs[target] {
				target = m.Index
			}
		}
		if target >= 0 {
			return res[victim], target
		}
	}
	return nil, -1
}

// checkIndexCurrent asserts that the incrementally maintained trees
// equal a from-scratch rebuild over the current machine states.
func checkIndexCurrent(t *testing.T, f *Fleet) {
	t.Helper()
	var got [][]capNode
	for _, cl := range f.index.classes {
		got = append(got, append([]capNode(nil), cl.nodes...))
	}
	f.index.sync(f.Machines)
	for c, cl := range f.index.classes {
		for i := range cl.nodes {
			if got[c][i] != cl.nodes[i] {
				t.Fatalf("class %d node %d = %+v, rebuild gives %+v", c, i, got[c][i], cl.nodes[i])
			}
		}
	}
}

// TestIndexMatchesScanOracle drives random churn — offers, retries,
// departures, crashes with eviction, repairs, brown-out degrades and
// upgrades, and migrations — through a fleet whose policy is checked
// against the reference scan at every placement, over every policy,
// core-class list and overcommit. Half the runs draw from two profiles
// and a three-value interference table, so equal demands, equal counts
// and equal binpack costs are common.
func TestIndexMatchesScanOracle(t *testing.T) {
	classLists := [][]float64{{8}, {8, 4}, {8, 4, 16}}
	suite := app.PaperSuite()
	for _, classes := range classLists {
		for _, oc := range []float64{1, 1.5} {
			for _, name := range PolicyNames() {
				for seed := uint64(1); seed <= 6; seed++ {
					ties := seed%2 == 0
					t.Run(fmt.Sprintf("%v/oc=%g/%s/seed=%d", classes, oc, name, seed), func(t *testing.T) {
						rng := rand.New(rand.NewPCG(seed, uint64(len(classes))))
						profiles := suite
						if ties {
							profiles = suite[:2]
						}
						var it *Interference
						if name == PolicyBinPack && seed%3 != 0 {
							it = NewInterference()
							for _, a := range profiles {
								for _, b := range profiles {
									it.Set(a.Name, b.Name, []float64{0, 0.1, 0.2}[rng.IntN(3)])
								}
							}
						}
						runOracleChurn(t, rng, classes, oc, newScanned(t, name, it), profiles)
					})
				}
			}
		}
	}
}

func runOracleChurn(t *testing.T, rng *rand.Rand, classes []float64, oc float64, pol *scanned, profiles []app.Profile) {
	const epochs = 24
	machines := 1 + rng.IntN(13)
	f := NewHetero(machines, classes)
	f.Overcommit = oc
	c := NewChurn(f, pol)
	c.Retry = RetryPolicy{MaxAttempts: 2, BackoffEpochs: 1}
	rtts := []float64{50, 100, 130, 150, 200}
	rtt := make([]float64, machines)
	id := 0
	for e := 0; e < epochs; e++ {
		c.DepartDue(e)
		// Fault phase: states are written directly, as fault injection
		// does; a crash evicts.
		for mi, m := range f.Machines {
			switch r := rng.IntN(10); {
			case m.State == MachineUp && r == 0:
				m.State = MachineDown
				c.EvictAll(mi, e)
			case m.State == MachineDown && r < 5:
				m.State = MachineCold
			case m.State == MachineCold && r < 5:
				m.State = MachineUp
			}
		}
		c.RetryDue(e)
		for n := rng.IntN(2*machines + 1); n > 0; n-- {
			s := &Session{ID: id, Profile: profiles[rng.IntN(len(profiles))], Arrive: e, Departs: e + 1 + rng.IntN(6), Machine: -1}
			id++
			c.Offer(s, e)
		}
		// React phase.
		for mi := range rtt {
			rtt[mi] = rtts[rng.IntN(len(rtts))]
		}
		for mi, m := range f.Machines {
			if m.State == MachineDown {
				continue
			}
			switch rng.IntN(4) {
			case 0:
				c.DegradeToFit(mi)
			case 1:
				c.UpgradeOne(mi)
			case 2:
				s, target := migrateRef(c, mi, rtt)
				moved := c.MigrateOff(mi, rtt)
				if moved != (target >= 0) || (moved && s.Machine != target) {
					t.Fatalf("epoch %d: MigrateOff(%d) moved=%v, scan wants session %v to %d", e, mi, moved, s, target)
				}
			}
		}
		checkIndexCurrent(t, f)
		for mi, m := range f.Machines {
			if len(m.Placed) != len(c.Resident(mi)) {
				t.Fatalf("epoch %d: machine %d has %d placements for %d residents", e, mi, len(m.Placed), len(c.Resident(mi)))
			}
		}
	}
	if pol.calls == 0 {
		t.Fatal("no placement was checked")
	}

	// One-shot admission over a fleet with states written beforehand.
	g := NewHetero(machines, classes)
	g.Overcommit = oc
	for _, m := range g.Machines {
		m.State = MachineState(rng.IntN(3))
	}
	reqs := make([]app.Profile, 3*machines)
	for i := range reqs {
		reqs[i] = profiles[rng.IntN(len(profiles))]
	}
	g.Admit(reqs, pol)
}

// TestIndexSeesStateWrittenBetweenEpochs: Machine.State is written
// directly between epochs. The next Offer must honour it, and so must
// the next RetryDue — even with nothing queued — for the rest of that
// epoch, including the React-phase MigrateOff.
func TestIndexSeesStateWrittenBetweenEpochs(t *testing.T) {
	pol, _ := NewPolicy(PolicyLeastDemand, nil)
	f := New(2, 8)
	c := NewChurn(f, pol)
	d2, _ := app.ByName("D2")
	a := &Session{ID: 0, Profile: d2, Departs: 100}
	b := &Session{ID: 1, Profile: d2, Departs: 100}

	// Machine 1 goes down before epoch 0: both D2s must land on
	// machine 0, though machine 1 is emptier.
	f.Machines[1].State = MachineDown
	if !c.Offer(a, 0) || !c.Offer(b, 0) || a.Machine != 0 || b.Machine != 0 {
		t.Fatalf("Offer ignored a down machine: sessions on %d and %d", a.Machine, b.Machine)
	}

	// Machine 1 comes back before epoch 1. Machine 0 now holds more
	// than its nominal 8 cores allow a migration target, so only the
	// repaired machine can take a D2.
	f.Machines[1].State = MachineUp
	if r, _ := c.RetryDue(1); r != 0 {
		t.Fatal("nothing was queued")
	}
	if !c.MigrateOff(0, []float64{200, 50}) {
		t.Fatal("MigrateOff must see the machine repaired before this epoch's RetryDue")
	}
	if b.Machine != 1 && a.Machine != 1 {
		t.Fatalf("a D2 must move to machine 1: sessions on %d and %d", a.Machine, b.Machine)
	}

	// One-shot admission honours states written before Admit.
	g := New(2, 8)
	g.Machines[0].State = MachineCold
	re, _ := app.ByName("RE")
	g.Admit([]app.Profile{re, re}, pol)
	if len(g.Machines[0].Placed) != 0 || len(g.Machines[1].Placed) != 2 {
		t.Fatalf("Admit placed on a cold machine: %d and %d", len(g.Machines[0].Placed), len(g.Machines[1].Placed))
	}
}
