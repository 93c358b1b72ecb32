package sched

import (
	"math/bits"

	"vliwq/internal/machine"
)

// fullRows packs, per (cluster, class), one bit per row of the II window
// that is at capacity. A feasibility probe over the whole window collapses
// to a rotate/mask/trailing-zeros sequence on these words instead of a
// per-row walk, which is where the slot search spends its time. Both
// reservation tables embed it: mrt, which also keeps each slot's occupants,
// and countTable, which keeps only how many units each slot has reserved.
// The table that embeds it decides when a row becomes full or free again
// (setFull, clearFull).
type fullRows struct {
	ii     int
	cfg    *machine.Config
	nwords int    // 64-bit words per (cluster, class) row bitmap
	mask   uint64 // valid-row bits of the last (or only) bitmap word
	full   []uint64
}

// reset reconfigures the words for a new II, reusing their storage so
// repeated attempts do not allocate once it has reached its high-water
// size.
func (f *fullRows) reset(ii int, cfg *machine.Config) {
	f.ii = ii
	f.cfg = cfg
	nc := cfg.NumClusters()
	f.nwords = (ii + 63) / 64
	if rem := ii % 64; rem != 0 {
		f.mask = 1<<rem - 1
	} else {
		f.mask = ^uint64(0)
	}
	nfull := nc * int(machine.NumClasses) * f.nwords
	if cap(f.full) < nfull {
		f.full = make([]uint64, nfull)
	} else {
		f.full = f.full[:nfull]
		for i := range f.full {
			f.full[i] = 0
		}
	}
	// A (cluster, class) pair without units can never issue: mark every row
	// full up front so probes reject it with the same bit test as a
	// genuinely saturated row.
	for c := 0; c < nc; c++ {
		for class := machine.FUClass(0); class < machine.NumClasses; class++ {
			if cfg.FUCount(c, class) == 0 {
				w := f.fidx(c, class)
				for i := 0; i < f.nwords; i++ {
					f.full[w+i] = ^uint64(0)
				}
				f.full[w+f.nwords-1] = f.mask
			}
		}
	}
}

// fidx returns the first bitmap word of the (cluster, class) pair.
func (f *fullRows) fidx(cluster int, class machine.FUClass) int {
	return (cluster*int(machine.NumClasses) + int(class)) * f.nwords
}

// setFull marks the row of the (cluster, class) pair as at capacity.
func (f *fullRows) setFull(row, cluster int, class machine.FUClass) {
	f.full[f.fidx(cluster, class)+row>>6] |= 1 << (uint(row) & 63)
}

// clearFull marks the row of the (cluster, class) pair as having a free
// unit.
func (f *fullRows) clearFull(row, cluster int, class machine.FUClass) {
	f.full[f.fidx(cluster, class)+row>>6] &^= 1 << (uint(row) & 63)
}

// free reports whether an FU of the given class is available in the cluster
// at the given row (one AND of the packed occupancy word).
func (f *fullRows) free(row, cluster int, class machine.FUClass) bool {
	return f.full[f.fidx(cluster, class)+row>>6]>>(uint(row)&63)&1 == 0
}

// firstFree returns the first cycle t in [from, to) whose row t%II has a
// free unit of the class in the cluster. The caller guarantees
// to-from <= II, so each row is visited at most once; on the II <= 64 fast
// path the whole window collapses to one rotate + mask + trailing-zeros.
func (f *fullRows) firstFree(from, to, cluster int, class machine.FUClass) (int, bool) {
	if from >= to {
		return 0, false
	}
	w := f.fidx(cluster, class)
	if f.nwords == 1 {
		avail := ^f.full[w] & f.mask
		if avail == 0 {
			return 0, false
		}
		// Rotate the free-row bits so bit d corresponds to cycle from+d,
		// then clip to the window length.
		r0 := uint(from % f.ii)
		g := (avail>>r0 | avail<<(uint(f.ii)-r0)) & f.mask
		if l := to - from; l < f.ii {
			g &= 1<<uint(l) - 1
		}
		if g == 0 {
			return 0, false
		}
		return from + bits.TrailingZeros64(g), true
	}
	for t := from; t < to; t++ {
		row := t % f.ii
		if f.full[w+row>>6]>>(uint(row)&63)&1 == 0 {
			return t, true
		}
	}
	return 0, false
}

// anyFree reports whether any row of the (cluster, class) pair still has a
// free unit — one complement-and-mask pass over the packed row-full words.
// The exact search's occupancy lookahead (exact.go) is built on it.
func (f *fullRows) anyFree(cluster int, class machine.FUClass) bool {
	w := f.fidx(cluster, class)
	for i := 0; i < f.nwords-1; i++ {
		if ^f.full[w+i] != 0 {
			return true
		}
	}
	return ^f.full[w+f.nwords-1]&f.mask != 0
}

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
//   - the embedded fullRows packs, per (cluster, class), one bit per row
//     that is at capacity, for the probes.
//
// The two views are updated together in add/remove; FuzzMRTBitset and the
// differential tests pin their agreement.
type mrt struct {
	fullRows
	rows []cell // len ii * numClusters, row-major
}

type cell [machine.NumClasses][]int

// reset reconfigures the table for a new II, reusing the row array, the
// per-cell reservation slices and the bitmap words so repeated attempts do
// not allocate once the table has reached its high-water size.
func (m *mrt) reset(ii int, cfg *machine.Config) {
	m.fullRows.reset(ii, cfg)
	need := ii * cfg.NumClusters()
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
}

func (m *mrt) at(row, cluster int) *cell {
	return &m.rows[row*m.cfg.NumClusters()+cluster]
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
		m.setFull(row, cluster, class)
	}
}

// remove releases the reservation of opID; it panics if absent.
func (m *mrt) remove(row, cluster int, class machine.FUClass, opID int) {
	c := m.at(row, cluster)
	s := c[class]
	for i, id := range s {
		if id == opID {
			c[class] = append(s[:i], s[i+1:]...)
			m.clearFull(row, cluster, class)
			return
		}
	}
	panic("sched: MRT remove of absent op")
}

// occupants returns the ops occupying (row, cluster, class).
func (m *mrt) occupants(row, cluster int, class machine.FUClass) []int {
	return m.at(row, cluster)[class]
}

// countTable is the exact search's reservation table. The search asks only
// whether a slot is free, never which ops hold it, so in place of mrt's
// occupant lists it keeps a count of reserved units per (row, cluster,
// class) next to the same row-full words.
type countTable struct {
	fullRows
	used []int32 // units reserved, indexed (row*numClusters+cluster)*NumClasses+class
}

// reset reconfigures the table for a new II, reusing its storage.
func (t *countTable) reset(ii int, cfg *machine.Config) {
	t.fullRows.reset(ii, cfg)
	need := ii * cfg.NumClusters() * int(machine.NumClasses)
	if cap(t.used) < need {
		t.used = make([]int32, need)
	} else {
		t.used = t.used[:need]
		for i := range t.used {
			t.used[i] = 0
		}
	}
}

func (t *countTable) slot(row, cluster int, class machine.FUClass) int {
	return (row*t.cfg.NumClusters()+cluster)*int(machine.NumClasses) + int(class)
}

// add reserves one unit; like mrt.add it panics on oversubscription.
func (t *countTable) add(row, cluster int, class machine.FUClass) {
	i := t.slot(row, cluster, class)
	n := int32(t.cfg.FUCount(cluster, class))
	if t.used[i] >= n {
		panic("sched: reservation count oversubscription")
	}
	t.used[i]++
	if t.used[i] == n {
		t.setFull(row, cluster, class)
	}
}

// remove releases one unit; it panics if the slot holds none.
func (t *countTable) remove(row, cluster int, class machine.FUClass) {
	i := t.slot(row, cluster, class)
	if t.used[i] == 0 {
		panic("sched: reservation count remove from an empty slot")
	}
	t.used[i]--
	t.clearFull(row, cluster, class)
}
