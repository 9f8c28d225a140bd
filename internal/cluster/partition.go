package cluster

import "fmt"

// Partition splits a fleet into p disjoint sub-fleets for the sharded
// scheduling service: shard k receives servers k, k+p, k+2p, ... of the
// original ID order. Round-robin by index, not by contiguous range, so
// every partition samples the fleet's heterogeneity — a testbed30 split
// does not put both powerful servers in shard 0 and leave shard 3 all
// small nodes. Server names are preserved (they stay globally unique);
// IDs are renumbered 0..len-1 within each partition: a server's ID is its
// position in its own fleet.
//
// Each partition is a fresh, fully free cluster: partitioning is a
// construction-time operation, not a live migration.
func Partition(c *Cluster, p int) ([]*Cluster, error) {
	if p < 1 {
		return nil, fmt.Errorf("cluster: partition count %d < 1", p)
	}
	if p > c.Len() {
		return nil, fmt.Errorf("cluster: cannot split %d servers into %d partitions", c.Len(), p)
	}
	specs := make([][]Spec, p)
	for i, s := range c.Servers() {
		k := i % p
		specs[k] = append(specs[k], Spec{
			Name:     s.Name,
			Capacity: s.Capacity,
			Speed:    s.Speed,
			Rack:     s.Rack,
		})
	}
	out := make([]*Cluster, p)
	for k := range out {
		part, err := New(specs[k])
		if err != nil {
			return nil, fmt.Errorf("cluster: partition %d: %w", k, err)
		}
		out[k] = part
	}
	return out, nil
}
