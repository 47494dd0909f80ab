package hdfs

import (
	"errors"
	"fmt"
)

// OnNodeFailure removes the dead node from every block's replica set and
// re-replicates under-replicated blocks onto live nodes, charging the copy
// traffic (disk read at a surviving source, network + disk write at the new
// target). Blocks whose every replica has died are marked lost. Blocks left
// under-replicated by an earlier failed re-replication are retried here too,
// so a transient shortage of targets heals on the next failure event.
//
// It returns the number of blocks re-replicated and the number lost. The
// returned error joins every per-block re-replication error (it is not just
// the last one); each failure also increments the
// hdfs.rereplication_failed counter.
func (fs *FileSystem) OnNodeFailure(nodeID string) (rereplicated, lost int, err error) {
	type job struct {
		b    *blockMeta
		path string
	}
	var jobs []job

	fs.mu.Lock()
	for _, f := range fs.files {
		for _, b := range f.blocks {
			removed := false
			keep := b.replicas[:0]
			for _, rep := range b.replicas {
				if rep == nodeID {
					removed = true
					continue
				}
				keep = append(keep, rep)
			}
			b.replicas = keep
			if removed {
				delete(b.corrupt, nodeID)
			}
			if b.lost {
				continue
			}
			if len(b.replicas) == 0 {
				b.lost = true
				lost++
				continue
			}
			// Re-replicate blocks this failure degraded, and blocks a
			// previous failure left under-replicated (retry path).
			if removed || len(b.replicas) < fs.replication {
				jobs = append(jobs, job{b: b, path: f.path})
			}
		}
	}
	fs.mu.Unlock()

	var errs []error
	for _, j := range jobs {
		if e := fs.rereplicate(j.b, j.path); e != nil {
			errs = append(errs, e)
			fs.metrics.RereplicationsFailed.Add(1)
			continue
		}
		rereplicated++
	}
	return rereplicated, lost, errors.Join(errs...)
}

// rereplicate copies one under-replicated block to new live targets. The
// wanted replica count is capped at the number of live nodes — with a
// 3-node cluster and replication 3, losing a node leaves 2 replicas as the
// best achievable state, not an error. An error is returned only when an
// achievable copy could not be made (no eligible target accepted, or
// charging a chosen target failed).
func (fs *FileSystem) rereplicate(b *blockMeta, path string) error {
	alive := fs.cluster.Alive()

	fs.mu.Lock()
	have := make(map[string]bool, len(b.replicas))
	for _, rep := range b.replicas {
		have[rep] = true
	}
	want := fs.replication
	if want > len(alive) {
		want = len(alive)
	}
	need := want - len(b.replicas)
	policy := fs.policyFor(path)
	// Ask the policy for a full set, then take targets we don't already have.
	candidates := policy.ChooseTargets(path, 0, len(alive), "", alive, fs.rng)
	size := b.size
	var source string
	if len(b.replicas) > 0 {
		source = b.replicas[0]
	}
	fs.mu.Unlock()

	if need <= 0 {
		return nil
	}
	src := fs.cluster.Node(source)
	for _, target := range candidates {
		if need == 0 {
			break
		}
		if have[target.ID()] || !target.IsAlive() {
			continue
		}
		if src != nil && src.IsAlive() {
			if err := src.ChargeDiskRead(size, true); err != nil {
				return fmt.Errorf("hdfs: re-replicate block %d: %w", b.id, err)
			}
		}
		if err := target.ChargeNet(size); err != nil {
			return fmt.Errorf("hdfs: re-replicate block %d: %w", b.id, err)
		}
		if err := target.ChargeDiskWrite(size, true); err != nil {
			return fmt.Errorf("hdfs: re-replicate block %d: %w", b.id, err)
		}
		fs.mu.Lock()
		b.replicas = append(b.replicas, target.ID())
		fs.mu.Unlock()
		have[target.ID()] = true
		need--
	}
	if need > 0 {
		return fmt.Errorf("hdfs: re-replicate block %d of %s: still %d short (no eligible target)", b.id, path, need)
	}
	return nil
}
