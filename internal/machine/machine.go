// Package machine models the clustered VLIW target of the paper: clusters of
// functional units attached to private queue register files, interconnected
// by a bidirectional ring of communication queues (paper Figs. 5 and 7).
//
// A Config with a single cluster models the "ideal" single-cluster VLIW the
// paper uses as the performance baseline; multi-cluster configs add the ring
// topology and its adjacency constraint on inter-cluster communication.
package machine

import (
	"fmt"
	"strconv"
	"strings"

	"vliwq/internal/ir"
)

// FUClass identifies a functional-unit class. Every operation kind executes
// on exactly one class.
type FUClass uint8

const (
	// LS executes loads and stores.
	LS FUClass = iota
	// ALU executes single-cycle integer/float ALU operations.
	ALU
	// MUL executes multiplies and divides.
	MUL
	// COPY executes queue copy operations (and inter-cluster moves in the
	// move-op extension). The paper adds these units on top of the quoted
	// FU counts ("plus the required FUs to support copy operations").
	COPY
	// NumClasses is the number of FU classes.
	NumClasses
)

var classNames = [...]string{LS: "L/S", ALU: "ADD", MUL: "MUL", COPY: "COPY"}

func (c FUClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("FUClass(%d)", uint8(c))
}

// ClassOf returns the FU class executing the given operation kind.
func ClassOf(k ir.OpKind) FUClass {
	switch k {
	case ir.KLoad, ir.KStore:
		return LS
	case ir.KAdd:
		return ALU
	case ir.KMul, ir.KDiv:
		return MUL
	case ir.KCopy, ir.KMove:
		return COPY
	}
	return NumClasses // invalid
}

// Cluster describes one cluster: FU counts per class plus its private queue
// register file.
type Cluster struct {
	FUs           [NumClasses]int
	PrivateQueues int // number of queues in the private QRF (paper: 8)
	QueueDepth    int // positions per queue; 0 = unbounded (analysis mode)
}

// MaxClusters is the widest ring a Config may describe. The scheduler packs
// per-cluster facts (ring adjacency, FU-class providers) into one uint64
// bit per cluster, and the paper's machines are rings of 4 to 6 clusters;
// Validate rejects anything wider.
const MaxClusters = 64

// Config is a complete machine description.
type Config struct {
	Name     string
	Clusters []Cluster
	// RingQueues is the number of communication queues per direction on
	// each ring link between adjacent clusters (paper: 8).
	RingQueues int
	// CommLatency is the extra latency, in cycles, of delivering a value to
	// an adjacent cluster through a ring queue. The paper's model writes
	// directly into the neighbour's communication queue (latency 0).
	CommLatency int
	// AllowMoves enables the move-operation extension (paper §5, future
	// work): values may hop between non-adjacent clusters through chains of
	// move operations executed on COPY units.
	AllowMoves bool
}

// NumClusters returns the number of clusters.
func (c *Config) NumClusters() int { return len(c.Clusters) }

// FUCount returns the number of FUs of class cl in cluster idx.
func (c *Config) FUCount(idx int, cl FUClass) int { return c.Clusters[idx].FUs[cl] }

// TotalFUs returns the machine-wide FU count per class.
func (c *Config) TotalFUs() [NumClasses]int {
	var t [NumClasses]int
	for _, cl := range c.Clusters {
		for i := range cl.FUs {
			t[i] += cl.FUs[i]
		}
	}
	return t
}

// ComputeFUs returns the number of "computation" FUs (excluding COPY units),
// the number the paper quotes when naming a machine (e.g. "12 FUs").
func (c *Config) ComputeFUs() int {
	n := 0
	for _, cl := range c.Clusters {
		n += cl.FUs[LS] + cl.FUs[ALU] + cl.FUs[MUL]
	}
	return n
}

// Spec returns the machine in the "single:<fus>" / "clustered:<clusters>"
// notation the tools and the vliwd service share, derived structurally: one
// cluster reports its computation-FU count, several report the cluster
// count. For configurations built by SingleCluster, Clustered or the
// facade's ParseMachine the spec round-trips — ParseMachine(c.Spec())
// rebuilds an identical Config — which is what lets stats reports and
// request builders print a spec instead of dumping the struct. AllowMoves
// and CommLatency are not part of the notation (requests carry them as
// separate fields), and hand-assembled Configs with custom cluster mixes
// only round-trip their shape, not their exact FU layout.
func (c *Config) Spec() string {
	// A communication ring marks a clustered machine even at one cluster
	// (Clustered(1) has ring queues; SingleCluster never does).
	if len(c.Clusters) > 1 || c.RingQueues > 0 {
		return "clustered:" + strconv.Itoa(len(c.Clusters))
	}
	return "single:" + strconv.Itoa(c.ComputeFUs())
}

// RingDistance returns the minimal hop distance between clusters a and b on
// the bidirectional ring.
func (c *Config) RingDistance(a, b int) int {
	n := len(c.Clusters)
	if n == 0 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	if w := n - d; w < d {
		d = w
	}
	return d
}

// Adjacent reports whether clusters a and b are the same or ring-adjacent
// (distance <= 1); only such pairs may communicate without move operations.
func (c *Config) Adjacent(a, b int) bool { return c.RingDistance(a, b) <= 1 }

// Validate checks the configuration invariants.
func (c *Config) Validate() error {
	if len(c.Clusters) == 0 {
		return fmt.Errorf("machine %q: no clusters", c.Name)
	}
	if len(c.Clusters) > MaxClusters {
		return fmt.Errorf("machine %q: %d clusters exceed the %d-cluster limit", c.Name, len(c.Clusters), MaxClusters)
	}
	for i, cl := range c.Clusters {
		total := 0
		for _, n := range cl.FUs {
			if n < 0 {
				return fmt.Errorf("machine %q: cluster %d has a negative FU count", c.Name, i)
			}
			total += n
		}
		if total == 0 {
			return fmt.Errorf("machine %q: cluster %d has no FUs", c.Name, i)
		}
		if cl.PrivateQueues < 0 || cl.QueueDepth < 0 {
			return fmt.Errorf("machine %q: cluster %d has negative queue parameters", c.Name, i)
		}
	}
	if c.RingQueues < 0 || c.CommLatency < 0 {
		return fmt.Errorf("machine %q: negative ring parameters", c.Name)
	}
	return nil
}

func (c *Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d cluster(s)", c.Name, len(c.Clusters))
	if len(c.Clusters) > 0 {
		cl := c.Clusters[0]
		fmt.Fprintf(&b, " [%d L/S, %d ADD, %d MUL, %d COPY; %d queues]",
			cl.FUs[LS], cl.FUs[ALU], cl.FUs[MUL], cl.FUs[COPY], cl.PrivateQueues)
	}
	if len(c.Clusters) > 1 {
		fmt.Fprintf(&b, " ring %d queues/dir", c.RingQueues)
	}
	return b.String()
}
