package hdfs

import (
	"math/rand"
	"path"
	"sort"

	"clydesdale/internal/cluster"
)

// PlacementPolicy chooses the nodes that receive the replicas of a new
// block. Implementations must return up to repl distinct alive nodes; fewer
// is allowed when the cluster is small.
//
// This mirrors the pluggable block placement policy interface of HDFS 0.21
// that the paper calls out as the feature CIF depends on.
type PlacementPolicy interface {
	// ChooseTargets picks replica hosts for block blockIndex of filePath.
	// writer is the node the writing client runs on ("" for an external
	// client). alive is the current set of live nodes. rng is a
	// deterministic source the policy may use.
	ChooseTargets(filePath string, blockIndex int, repl int, writer string, alive []*cluster.Node, rng *rand.Rand) []*cluster.Node
}

// defaultPolicy reproduces stock HDFS behaviour: first replica on the
// writer's node when the writer is a cluster node, remaining replicas on
// random distinct nodes.
type defaultPolicy struct{}

func (defaultPolicy) ChooseTargets(filePath string, blockIndex, repl int, writer string, alive []*cluster.Node, rng *rand.Rand) []*cluster.Node {
	var out []*cluster.Node
	used := make(map[string]bool)
	for _, n := range alive {
		if n.ID() == writer {
			out = append(out, n)
			used[writer] = true
			break
		}
	}
	perm := rng.Perm(len(alive))
	for _, i := range perm {
		if len(out) >= repl {
			break
		}
		n := alive[i]
		if !used[n.ID()] {
			out = append(out, n)
			used[n.ID()] = true
		}
	}
	return out
}

// ColocatePolicy places every block of every file that shares the same
// parent directory on the same replica set, chosen deterministically by
// rendezvous (highest-random-weight) hashing of the directory name over the
// live nodes. CIF stores each column of a table partition as a separate
// file inside the partition directory; this policy guarantees that a map
// task scheduled on a replica host finds *all* the columns of its partition
// locally — the co-location property §4.1 describes.
type ColocatePolicy struct{}

func (ColocatePolicy) ChooseTargets(filePath string, blockIndex, repl int, writer string, alive []*cluster.Node, rng *rand.Rand) []*cluster.Node {
	dir := path.Dir(filePath)
	type scored struct {
		n *cluster.Node
		w uint64
	}
	scores := make([]scored, 0, len(alive))
	for _, n := range alive {
		scores = append(scores, scored{n: n, w: rendezvousWeight(dir, n.ID())})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].w != scores[j].w {
			return scores[i].w > scores[j].w
		}
		return scores[i].n.ID() < scores[j].n.ID()
	})
	if repl > len(scores) {
		repl = len(scores)
	}
	out := make([]*cluster.Node, repl)
	for i := 0; i < repl; i++ {
		out[i] = scores[i].n
	}
	return out
}

// rendezvousWeight hashes (group, node) with FNV-1a.
func rendezvousWeight(group, node string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(group); i++ {
		h ^= uint64(group[i])
		h *= prime
	}
	h ^= '/'
	h *= prime
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime
	}
	return h
}
