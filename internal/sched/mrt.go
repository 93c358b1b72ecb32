package sched

import (
	"math/bits"

	"vliwq/internal/machine"
)

// mrt is the modulo reservation table: for each of the II rows, each
// cluster, and each FU class, the IDs of the operations issuing there.
// Every operation reserves its functional unit for exactly one cycle at its
// issue time (unit-latency reservation, as in the paper's model).
//
// Occupancy is tracked twice, deliberately:
//
//   - rows holds the per-slot occupant ID lists. They answer "who is in the
//     way" (forceSlot's eviction choice), and their lengths are the
//     scalar reference the tests check the bitmaps below against.
//   - full packs, per (cluster, class), one bit per row that is at
//     capacity. A feasibility probe over the whole II window collapses to a
//     rotate/mask/trailing-zeros sequence on these words instead of a
//     per-row walk, which is where the slot search spends its time.
//
// The two views are updated together in add/remove; FuzzMRTBitset and the
// differential tests pin their agreement.
type mrt struct {
	ii     int
	cfg    *machine.Config
	rows   []cell // len ii * numClusters, row-major
	nwords int    // 64-bit words per (cluster, class) row bitmap
	mask   uint64 // valid-row bits of the last (or only) bitmap word
	full   []uint64
}

type cell [machine.NumClasses][]int

func newMRT(ii int, cfg *machine.Config) *mrt {
	m := &mrt{}
	m.reset(ii, cfg)
	return m
}

// reset reconfigures the table for a new II, reusing the row array, the
// per-cell reservation slices and the bitmap words so repeated attempts do
// not allocate once the table has reached its high-water size.
func (m *mrt) reset(ii int, cfg *machine.Config) {
	m.ii = ii
	m.cfg = cfg
	nc := cfg.NumClusters()
	need := ii * nc
	if cap(m.rows) < need {
		m.rows = make([]cell, need)
	} else {
		m.rows = m.rows[:need]
		for i := range m.rows {
			for class := range m.rows[i] {
				m.rows[i][class] = m.rows[i][class][:0]
			}
		}
	}
	m.nwords = (ii + 63) / 64
	if rem := ii % 64; rem != 0 {
		m.mask = 1<<rem - 1
	} else {
		m.mask = ^uint64(0)
	}
	nfull := nc * int(machine.NumClasses) * m.nwords
	if cap(m.full) < nfull {
		m.full = make([]uint64, nfull)
	} else {
		m.full = m.full[:nfull]
		for i := range m.full {
			m.full[i] = 0
		}
	}
	// A (cluster, class) pair without units can never issue: mark every row
	// full up front so probes reject it with the same bit test as a
	// genuinely saturated row.
	for c := 0; c < nc; c++ {
		for class := machine.FUClass(0); class < machine.NumClasses; class++ {
			if cfg.FUCount(c, class) == 0 {
				w := m.fidx(c, class)
				for i := 0; i < m.nwords; i++ {
					m.full[w+i] = ^uint64(0)
				}
				m.full[w+m.nwords-1] = m.mask
			}
		}
	}
}

func (m *mrt) at(row, cluster int) *cell {
	return &m.rows[row*m.cfg.NumClusters()+cluster]
}

// fidx returns the first bitmap word of the (cluster, class) pair.
func (m *mrt) fidx(cluster int, class machine.FUClass) int {
	return (cluster*int(machine.NumClasses) + int(class)) * m.nwords
}

// free reports whether an FU of the given class is available in the cluster
// at the given row (one AND of the packed occupancy word).
func (m *mrt) free(row, cluster int, class machine.FUClass) bool {
	return m.full[m.fidx(cluster, class)+row>>6]>>(uint(row)&63)&1 == 0
}

// firstFree returns the first cycle t in [from, to) whose row t%II has a
// free unit of the class in the cluster. The caller guarantees
// to-from <= II, so each row is visited at most once; on the II <= 64 fast
// path the whole window collapses to one rotate + mask + trailing-zeros.
func (m *mrt) firstFree(from, to, cluster int, class machine.FUClass) (int, bool) {
	if from >= to {
		return 0, false
	}
	w := m.fidx(cluster, class)
	if m.nwords == 1 {
		avail := ^m.full[w] & m.mask
		if avail == 0 {
			return 0, false
		}
		// Rotate the free-row bits so bit d corresponds to cycle from+d,
		// then clip to the window length.
		r0 := uint(from % m.ii)
		g := (avail>>r0 | avail<<(uint(m.ii)-r0)) & m.mask
		if l := to - from; l < m.ii {
			g &= 1<<uint(l) - 1
		}
		if g == 0 {
			return 0, false
		}
		return from + bits.TrailingZeros64(g), true
	}
	for t := from; t < to; t++ {
		row := t % m.ii
		if m.full[w+row>>6]>>(uint(row)&63)&1 == 0 {
			return t, true
		}
	}
	return 0, false
}

// add reserves one unit; callers must have checked free (or intend to
// oversubscribe temporarily before evicting, which is forbidden here:
// add panics on oversubscription to catch scheduler bugs early).
func (m *mrt) add(row, cluster int, class machine.FUClass, opID int) {
	c := m.at(row, cluster)
	n := m.cfg.FUCount(cluster, class)
	if len(c[class]) >= n {
		panic("sched: MRT oversubscription")
	}
	c[class] = append(c[class], opID)
	if len(c[class]) == n {
		m.full[m.fidx(cluster, class)+row>>6] |= 1 << (uint(row) & 63)
	}
}

// remove releases the reservation of opID; it panics if absent.
func (m *mrt) remove(row, cluster int, class machine.FUClass, opID int) {
	c := m.at(row, cluster)
	s := c[class]
	for i, id := range s {
		if id == opID {
			c[class] = append(s[:i], s[i+1:]...)
			m.full[m.fidx(cluster, class)+row>>6] &^= 1 << (uint(row) & 63)
			return
		}
	}
	panic("sched: MRT remove of absent op")
}

// anyFree reports whether any row of the (cluster, class) pair still has a
// free unit — one complement-and-mask pass over the packed row-full words.
// The exact search's occupancy lookahead (exact.go) is built on it.
func (m *mrt) anyFree(cluster int, class machine.FUClass) bool {
	w := m.fidx(cluster, class)
	for i := 0; i < m.nwords-1; i++ {
		if ^m.full[w+i] != 0 {
			return true
		}
	}
	return ^m.full[w+m.nwords-1]&m.mask != 0
}

// occupants returns the ops occupying (row, cluster, class).
func (m *mrt) occupants(row, cluster int, class machine.FUClass) []int {
	return m.at(row, cluster)[class]
}
