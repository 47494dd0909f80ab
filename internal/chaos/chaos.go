// Package chaos is a deterministic, seeded fault-injection layer for the
// simulated cluster/hdfs/mr/serve stack. Clydesdale's pitch rests on running
// atop unmodified Hadoop precisely to inherit MapReduce's fault tolerance
// for free (paper §1, §9); this package is how that inheritance is actually
// exercised. A Plan describes the faults — node kills triggered by block-read
// counts or accumulated modeled time, slow-disk stragglers, transient read
// errors, corrupted replica bytes — and a Controller applies them through
// the stack's injection points: cluster.Node Kill/SetDiskSlowdown,
// hdfs.ReadFaultInjector, and hdfs.CorruptReplica.
//
// The recovery machinery under test reacts on its own: the HDFS read path
// fails over across live replicas and CRC-verifies bytes, the namenode
// re-replicates a dead node's blocks, the MapReduce scheduler stops feeding
// a dead node and requeues its in-flight attempts, shuffle re-executes map
// tasks whose outputs died, and the serving layer drops the dead node's
// cached tables. Every injected fault increments the chaos.faults_injected
// counter when a registry is attached.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
)

// NodeKill kills one node when a trigger fires. Zero-valued triggers are
// disabled; with several set, the first to fire kills the node.
type NodeKill struct {
	// Node is the victim's ID (e.g. "node-1").
	Node string
	// AfterBlockReads kills the node once it has served that many HDFS
	// block-read attempts, a mid-job trigger independent of wall clock.
	AfterBlockReads int
	// AfterModelTime kills the node once its accumulated modeled time
	// (cluster.Stats.ModelTime) reaches the threshold — "kill at simulated
	// time T".
	AfterModelTime time.Duration
}

// SlowDisk makes one node a straggler: its disk charges take Factor times
// as long as nominal for the duration of the plan.
type SlowDisk struct {
	Node   string
	Factor float64
}

// TransientReads injects spurious read errors: each block-read attempt on a
// matching node fails with ErrInjectedRead with probability Prob. The HDFS
// read path treats it like any replica fault and fails over.
type TransientReads struct {
	// Node restricts injection to one node; "" matches every node.
	Node string
	Prob float64
}

// Corruption flips bytes of one replica of one block, leaving the other
// replicas pristine. The per-block CRC32 on the HDFS read path detects the
// damage, drops the bad replica, and fails the read over.
type Corruption struct {
	Path  string
	Block int
	// Node selects whose replica to corrupt; "" picks the block's first
	// replica (the one served to every client without a local copy).
	Node string
}

// Plan is one deterministic fault schedule. The same plan, seed and
// workload produce the same injected faults.
type Plan struct {
	Name        string
	Seed        int64
	Kills       []NodeKill
	Stragglers  []SlowDisk
	Transient   []TransientReads
	Corruptions []Corruption
}

// ErrInjectedRead marks a transient read error injected by a plan; check
// with errors.Is.
var ErrInjectedRead = errors.New("chaos: injected transient read error")

// Controller applies a Plan to a cluster+filesystem and implements
// hdfs.ReadFaultInjector for the trigger-on-read faults.
type Controller struct {
	plan Plan
	c    *cluster.Cluster
	fs   *hdfs.FileSystem

	mu       sync.Mutex
	rng      *rand.Rand
	serves   map[string]int // per-node block-read attempts observed
	killed   map[string]bool
	injected int64
	started  bool
}

// New builds a controller for the plan. reg, when non-nil, reads
// FaultsInjected as the chaos.faults_injected counter.
func New(c *cluster.Cluster, fs *hdfs.FileSystem, plan Plan, reg *obs.Registry) *Controller {
	ctl := &Controller{
		plan:   plan,
		c:      c,
		fs:     fs,
		rng:    rand.New(rand.NewSource(plan.Seed + 7)),
		serves: make(map[string]int),
		killed: make(map[string]bool),
	}
	if reg != nil {
		reg.CounterFunc("chaos.faults_injected", ctl.FaultsInjected)
	}
	return ctl
}

// Start applies the plan's standing faults (stragglers, corruptions) and
// installs the read-fault injector. It returns an error if a corruption
// target does not exist; stragglers referencing unknown nodes are ignored.
func (ctl *Controller) Start() error {
	ctl.mu.Lock()
	if ctl.started {
		ctl.mu.Unlock()
		return fmt.Errorf("chaos: plan %q already started", ctl.plan.Name)
	}
	ctl.started = true
	ctl.mu.Unlock()

	for _, s := range ctl.plan.Stragglers {
		if n := ctl.c.Node(s.Node); n != nil {
			n.SetDiskSlowdown(s.Factor)
			ctl.noteFault()
		}
	}
	for _, cr := range ctl.plan.Corruptions {
		if _, err := ctl.fs.CorruptReplica(cr.Path, cr.Block, cr.Node); err != nil {
			return err
		}
		ctl.noteFault()
	}
	ctl.fs.SetReadFaultInjector(ctl)
	return nil
}

// Stop uninstalls the injector and restores the stragglers' disk speed.
// Killed nodes stay dead (recovery, not resurrection, is what is under
// test).
func (ctl *Controller) Stop() {
	ctl.fs.SetReadFaultInjector(nil)
	for _, s := range ctl.plan.Stragglers {
		if n := ctl.c.Node(s.Node); n != nil {
			n.SetDiskSlowdown(1)
		}
	}
}

// FaultsInjected returns the number of faults the controller has applied:
// standing faults at Start plus every kill and transient error since.
func (ctl *Controller) FaultsInjected() int64 {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.injected
}

func (ctl *Controller) noteFault() {
	ctl.mu.Lock()
	ctl.injected++
	ctl.mu.Unlock()
}

// BeforeBlockRead implements hdfs.ReadFaultInjector: it counts the node's
// served reads, fires any kill trigger that has matured, and rolls the
// seeded dice for transient errors. Kills propagate to the namenode
// (OnNodeFailure re-replicates the dead node's blocks) and, via the
// cluster's death watchers, to the scheduler and serving layer.
func (ctl *Controller) BeforeBlockRead(nodeID string, blockID int64) error {
	var kill bool
	var transient bool

	ctl.mu.Lock()
	ctl.serves[nodeID]++
	served := ctl.serves[nodeID]
	for i := range ctl.plan.Kills {
		k := &ctl.plan.Kills[i]
		if k.Node != nodeID || ctl.killed[nodeID] {
			continue
		}
		fire := k.AfterBlockReads > 0 && served >= k.AfterBlockReads
		if !fire && k.AfterModelTime > 0 {
			if n := ctl.c.Node(nodeID); n != nil && n.Stats().ModelTime >= k.AfterModelTime {
				fire = true
			}
		}
		if fire {
			ctl.killed[nodeID] = true
			kill = true
		}
	}
	if !kill {
		for _, tr := range ctl.plan.Transient {
			if tr.Node != "" && tr.Node != nodeID {
				continue
			}
			if tr.Prob > 0 && ctl.rng.Float64() < tr.Prob {
				transient = true
				break
			}
		}
	}
	ctl.mu.Unlock()

	if kill {
		ctl.noteFault()
		if n := ctl.c.Node(nodeID); n != nil {
			n.Kill()
		}
		// The namenode notices and re-replicates what the dead node held.
		// Re-replication that cannot find targets is retried on the next
		// failure event; either way the read below must fail over now.
		_, _, _ = ctl.fs.OnNodeFailure(nodeID)
		return fmt.Errorf("chaos: killed %s mid-read (block %d)", nodeID, blockID)
	}
	if transient {
		ctl.noteFault()
		return fmt.Errorf("%w (node %s, block %d)", ErrInjectedRead, nodeID, blockID)
	}
	return nil
}
