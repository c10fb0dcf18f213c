package fleet

import "math"

// capIndex is the fleet's capacity index: the one structure every
// placement policy and the migration controller query instead of
// scanning the fleet. It keeps one tournament (segment) tree per core
// class over that class's machines in fleet-index order — NewHetero
// deals class slot c the machines c, c+K, c+2K, … (K classes), so
// machine i is leaf i/K of class i%K. Each leaf holds the machine's
// (Demand, len(Placed)); a machine that is not MachineUp is masked to
// +Inf demand so no query can select it. Each internal node keeps the
// subtree's minimum demand (with the lowest leaf holding it) and its
// minimum resident count.
//
// Within a class every machine has the same Cores, and float addition
// is monotone, so Demand+d <= Cores×overcommit holds for some member
// exactly when it holds for the class minimum. Pruning on a subtree's
// minimum demand therefore never drops a machine the fleet scan would
// have accepted, and every answer equals the scan's, bit for bit.
//
// Leaves are rewritten by Machine.place/release/replace in O(log M).
// Machine.State is an exported field written directly by fault
// injection, so the index re-reads every state in one O(M) pass (sync)
// at the admission entry points: Fleet.Admit, Churn.Arrive, and the
// first Churn.RetryDue/Offer of each epoch. Machine.Cores must not
// change after NewHetero builds the fleet.
type capIndex struct {
	classes []capClass
}

// capClass is one core class's tree in the usual implicit-heap layout:
// root at nodes[1], the children of node i at 2i and 2i+1, and leaf
// position p at nodes[size+p].
type capClass struct {
	cores float64
	// size is the leaf count, a power of two at least the class's
	// member count; padding leaves stay masked.
	size  int
	nodes []capNode
}

// capNode is one tree node: the subtree's minimum demand and the
// leaf position holding it (the lowest on ties), and the minimum
// resident count over the subtree's up machines.
type capNode struct {
	dem float64
	arg int32
	cnt int32
}

// maskedNode is a down, cold or padding leaf: it never fits and never
// bounds a count.
var maskedNode = capNode{dem: math.Inf(1), cnt: math.MaxInt32}

// build sizes the index for the fleet's machines and class list and
// loads every leaf. Every class's tree shares one backing array, so it
// allocates twice whatever the class count.
func (ix *capIndex) build(ms []*Machine, classes []float64) {
	k := len(classes)
	ix.classes = make([]capClass, k)
	total := 0
	for c, cores := range classes {
		n := (len(ms) - c + k - 1) / k
		size := 1
		for size < n {
			size <<= 1
		}
		ix.classes[c] = capClass{cores: cores, size: size}
		total += 2 * size
	}
	nodes := make([]capNode, total)
	for i := range nodes {
		nodes[i] = maskedNode
	}
	for c := range ix.classes {
		cl := &ix.classes[c]
		cl.nodes, nodes = nodes[:2*cl.size:2*cl.size], nodes[2*cl.size:]
	}
	for _, m := range ms {
		m.index = ix
	}
	ix.sync(ms)
}

// load writes machine m's leaf from its current bookkeeping and
// returns the leaf's class and node.
func (ix *capIndex) load(m *Machine) (*capClass, int) {
	k := len(ix.classes)
	cl := &ix.classes[m.Index%k]
	pos := m.Index / k
	if m.State != MachineUp {
		cl.nodes[cl.size+pos] = maskedNode
	} else {
		cl.nodes[cl.size+pos] = capNode{dem: m.Demand, arg: int32(pos), cnt: int32(len(m.Placed))}
	}
	return cl, cl.size + pos
}

// pull recomputes node i of a tree from its two children.
func pull(t []capNode, i int) {
	l, r := &t[2*i], &t[2*i+1]
	if r.dem < l.dem {
		t[i].dem, t[i].arg = r.dem, r.arg
	} else {
		t[i].dem, t[i].arg = l.dem, l.arg
	}
	t[i].cnt = min(l.cnt, r.cnt)
}

// update rewrites machine m's leaf and its ancestors: O(log M). The
// walk stops at the first ancestor the change leaves as it was — every
// node above depends only on its children.
func (ix *capIndex) update(m *Machine) {
	cl, i := ix.load(m)
	for i /= 2; i >= 1; i /= 2 {
		old := cl.nodes[i]
		pull(cl.nodes, i)
		if cl.nodes[i] == old {
			return
		}
	}
}

// sync re-reads every machine (its State included) and rebuilds every
// tree bottom-up: O(M).
func (ix *capIndex) sync(ms []*Machine) {
	for _, m := range ms {
		ix.load(m)
	}
	for c := range ix.classes {
		cl := &ix.classes[c]
		for i := cl.size - 1; i >= 1; i-- {
			pull(cl.nodes, i)
		}
	}
}

// up reports whether the index currently admits placements on machine
// i (MachineUp as of the last write to its leaf).
func (ix *capIndex) up(i int) bool {
	k := len(ix.classes)
	cl := &ix.classes[i%k]
	return !math.IsInf(cl.nodes[cl.size+i/k].dem, 1)
}

// anyFits reports whether some up machine can hold demand d within
// overcommit × its cores: one look at each class minimum, O(C).
func (ix *capIndex) anyFits(d, overcommit float64) bool {
	for c := range ix.classes {
		cl := &ix.classes[c]
		if cl.nodes[1].dem+d <= cl.cores*overcommit {
			return true
		}
	}
	return false
}

// leastDemand returns the fleet index of the up machine with the lowest
// Demand (ties toward the lower index) that fits demand d, or -1. The
// fitting members of a class are exactly those at or below some demand,
// so the class minimum is the class answer whenever it fits.
func (ix *capIndex) leastDemand(d, overcommit float64) int {
	best, bestDem := -1, 0.0
	for c := range ix.classes {
		cl := &ix.classes[c]
		root := cl.nodes[1]
		if !(root.dem+d <= cl.cores*overcommit) {
			continue
		}
		mi := int(root.arg)*len(ix.classes) + c
		if best < 0 || root.dem < bestDem || (root.dem == bestDem && mi < best) {
			best, bestDem = mi, root.dem
		}
	}
	return best
}

// firstFitFrom returns the lowest fleet index at or after start whose
// machine fits demand d, wrapping past the end once, or -1: the probe
// order of a round-robin cursor.
func (ix *capIndex) firstFitFrom(start int, d, overcommit float64) int {
	if mi := ix.firstFitAtOrAfter(start, d, overcommit); mi >= 0 {
		return mi
	}
	return ix.firstFitAtOrAfter(0, d, overcommit)
}

// firstFitAtOrAfter is the lowest fleet index >= start that fits, or -1.
func (ix *capIndex) firstFitAtOrAfter(start int, d, overcommit float64) int {
	k := len(ix.classes)
	best := -1
	for c := range ix.classes {
		cl := &ix.classes[c]
		lo := 0
		if start > c {
			lo = (start - c + k - 1) / k
		}
		pos := cl.firstFit(lo, d, cl.cores*overcommit)
		if pos < 0 {
			continue
		}
		if mi := pos*k + c; best < 0 || mi < best {
			best = mi
		}
	}
	return best
}

// firstFit returns the lowest leaf position >= lo in the class whose
// demand plus d is within limit, or -1. It walks right from leaf lo
// over the maximal subtrees covering [lo, size) in order — climbing
// past every subtree whose minimum cannot fit — then descends into the
// first one that can. A fitting neighbour costs O(1), the worst case
// O(log M).
func (cl *capClass) firstFit(lo int, d, limit float64) int {
	nodes := cl.nodes
	if lo >= cl.size || !(nodes[1].dem+d <= limit) {
		return -1
	}
	i := cl.size + lo
	for !(nodes[i].dem+d <= limit) {
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return -1
		}
		i++
	}
	for i < cl.size {
		i *= 2
		if !(nodes[i].dem+d <= limit) {
			i++
		}
	}
	return i - cl.size
}

// leastCount returns the fleet index of the fitting up machine hosting
// the fewest instances (ties toward the lower index), or -1. Each class
// is searched left-first with branch and bound: a subtree is skipped
// when its minimum demand cannot fit or its minimum count cannot beat
// the best found so far. Both bounds are exact, so the search is too.
func (ix *capIndex) leastCount(d, overcommit float64) int {
	k := len(ix.classes)
	best, bestCnt := -1, int32(math.MaxInt32)
	for c := range ix.classes {
		cl := &ix.classes[c]
		// Another class's equal count can still win on a lower index,
		// so the carried bound admits it.
		bound := bestCnt
		if best >= 0 {
			bound++
		}
		pos, cnt := -1, bound
		cl.minCount(1, d, cl.cores*overcommit, &pos, &cnt)
		if pos < 0 {
			continue
		}
		if mi := pos*k + c; best < 0 || cnt < bestCnt || (cnt == bestCnt && mi < best) {
			best, bestCnt = mi, cnt
		}
	}
	return best
}

// minCount is leastCount's per-class branch and bound: it lowers
// (*pos, *cnt) to the leftmost fitting leaf with a count below *cnt.
func (cl *capClass) minCount(node int, d, limit float64, pos *int, cnt *int32) {
	n := &cl.nodes[node]
	if !(n.dem+d <= limit) || n.cnt >= *cnt {
		return
	}
	if node >= cl.size {
		*pos, *cnt = node-cl.size, n.cnt
		return
	}
	cl.minCount(2*node, d, limit, pos, cnt)
	cl.minCount(2*node+1, d, limit, pos, cnt)
}
