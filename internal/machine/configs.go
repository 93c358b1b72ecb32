package machine

import (
	"fmt"
	"strconv"
)

// Standard configurations used by the paper's experiments.

// DefaultPrivateQueues is the per-cluster private QRF size the paper
// converges on (Fig. 7).
const DefaultPrivateQueues = 8

// DefaultRingQueues is the number of ring queues per direction per link
// (Fig. 7: "another 16 queues to implement the communication ring (8 to be
// used in each direction)").
const DefaultRingQueues = 8

// SingleCluster builds a one-cluster machine with n computation FUs plus
// enough COPY units (one per started triple of FUs, matching the paper's
// one-copy-unit-per-cluster provisioning). The class mix follows the
// cluster building block {1 L/S, 1 ADD, 1 MUL}: n/3 of each, with the
// remainder given to ADD first, then L/S.
//
// For analysis flexibility the single-cluster QRF is sized generously
// (queues = 64, unbounded depth); experiments measure how many queues were
// actually needed.
func SingleCluster(n int) Config {
	if n < 1 {
		panic(fmt.Sprintf("machine.SingleCluster: need at least 1 FU, got %d", n))
	}
	var fus [NumClasses]int
	base := n / 3
	fus[LS], fus[ALU], fus[MUL] = base, base, base
	switch n % 3 {
	case 1:
		fus[ALU]++
	case 2:
		fus[ALU]++
		fus[LS]++
	}
	fus[COPY] = (n + 2) / 3
	return Config{
		Name: "single-" + strconv.Itoa(n) + "fu",
		Clusters: []Cluster{{
			FUs:           fus,
			PrivateQueues: 64,
		}},
	}
}

// Clustered builds the paper's clustered machine: nClusters clusters of
// {1 L/S, 1 ADD, 1 MUL, 1 COPY}, each with an 8-queue private QRF,
// interconnected by a bidirectional ring with 8 communication queues per
// direction (Figs. 5 and 7). The quoted machine size is 3*nClusters
// computation FUs (4 clusters = "12 FUs").
func Clustered(nClusters int) Config {
	if nClusters < 1 {
		panic(fmt.Sprintf("machine.Clustered: need at least 1 cluster, got %d", nClusters))
	}
	clusters := make([]Cluster, nClusters)
	for i := range clusters {
		clusters[i] = Cluster{
			FUs:           [NumClasses]int{LS: 1, ALU: 1, MUL: 1, COPY: 1},
			PrivateQueues: DefaultPrivateQueues,
		}
	}
	return Config{
		Name:       "clustered-" + strconv.Itoa(nClusters) + "x3fu",
		Clusters:   clusters,
		RingQueues: DefaultRingQueues,
	}
}

// PaperSingleClusterFUs lists the single-cluster machine sizes of the
// copy-op and unrolling experiments (Figs. 3 and 4).
var PaperSingleClusterFUs = []int{4, 6, 12}

// PaperClusterCounts lists the cluster counts of the partitioning
// experiments (Fig. 6): 4, 5 and 6 clusters = 12, 15, 18 FUs.
var PaperClusterCounts = []int{4, 5, 6}
