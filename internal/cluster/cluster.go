// Package cluster models the heterogeneous server fleet DollyMP schedules
// onto: per-server capacities, a capacity-accounting allocation ledger,
// per-server speed factors (the paper's "powerful servers and normal
// computing nodes"), and time-varying background load, which §2 identifies
// as the second source of stragglers.
package cluster

import (
	"fmt"

	"dollymp/internal/resources"
)

// ServerID identifies a server within a Cluster: its position in
// Cluster.Servers().
type ServerID int

// Server is one machine in the fleet.
type Server struct {
	ID       ServerID
	Name     string
	Capacity resources.Vector
	// Speed scales task durations on this server: a task with base
	// duration d runs in d/Speed slots here. Powerful servers have
	// Speed > 1.
	Speed float64
	// Rack is the rack index; the 30-node testbed of §6.1 spans two
	// racks in a folded CLOS. Used by locality-aware placement.
	Rack int

	free resources.Vector
	// background is an extra slowdown factor in (0, 1]; 1 means no
	// background interference. Mutated by failure/slowdown injection.
	background float64
	// failed marks the server offline: no capacity is visible and
	// allocations are rejected until Restore.
	failed bool
}

// Free returns the currently unallocated capacity (zero while failed).
func (s *Server) Free() resources.Vector {
	if s.failed {
		return resources.Vector{}
	}
	return s.free
}

// Failed reports whether the server is offline.
func (s *Server) Failed() bool { return s.failed }

// Used returns the currently allocated capacity.
func (s *Server) Used() resources.Vector { return s.Capacity.Sub(s.free) }

// Fail marks the server offline. The caller (the simulator) is
// responsible for first releasing every allocation it holds there.
func (c *Cluster) Fail(id ServerID) { c.Server(id).failed = true }

// Restore brings a failed server back online with full free capacity.
// Restoring a healthy server is a no-op (its ledger must not be wiped).
func (c *Cluster) Restore(id ServerID) {
	s := c.Server(id)
	if !s.failed {
		return
	}
	s.failed = false
	s.free = s.Capacity
}

// EffectiveSpeed is the server speed after background interference.
func (s *Server) EffectiveSpeed() float64 { return s.Speed * s.background }

// Cluster is a fleet of servers with an allocation ledger. It is not safe
// for concurrent mutation; the simulator owns it from a single goroutine
// (share memory by communicating at the simulation API boundary instead).
type Cluster struct {
	servers []*Server
	total   resources.Vector
}

// New builds a cluster from server specs. Each spec's free capacity starts
// equal to its full capacity. IDs are assigned densely in spec order.
func New(specs []Spec) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no servers")
	}
	c := &Cluster{servers: make([]*Server, 0, len(specs))}
	for i, sp := range specs {
		if !sp.Capacity.IsValid() || sp.Capacity.IsZero() {
			return nil, fmt.Errorf("cluster: server %d has invalid capacity %v", i, sp.Capacity)
		}
		if !(sp.Speed > 0) {
			return nil, fmt.Errorf("cluster: server %d has invalid speed %v", i, sp.Speed)
		}
		s := &Server{
			ID:         ServerID(i),
			Name:       sp.Name,
			Capacity:   sp.Capacity,
			Speed:      sp.Speed,
			Rack:       sp.Rack,
			free:       sp.Capacity,
			background: 1,
		}
		c.servers = append(c.servers, s)
		c.total = c.total.Add(sp.Capacity)
	}
	return c, nil
}

// Spec describes one server for New.
type Spec struct {
	Name     string
	Capacity resources.Vector
	Speed    float64
	Rack     int
}

// Len returns the number of servers.
func (c *Cluster) Len() int { return len(c.servers) }

// Server returns the server with the given ID. It panics on an unknown
// ID, as a slice index out of range does.
func (c *Cluster) Server(id ServerID) *Server { return c.servers[id] }

// Contains reports whether a server with the given ID exists.
func (c *Cluster) Contains(id ServerID) bool { return id >= 0 && int(id) < len(c.servers) }

// Servers returns the fleet in ID order. Callers must not modify the
// returned slice.
func (c *Cluster) Servers() []*Server { return c.servers }

// Total returns the summed capacity across all servers (the denominator of
// the dominant share, Eq. 9/15).
func (c *Cluster) Total() resources.Vector { return c.total }

// TotalFree returns the summed free capacity of online servers.
func (c *Cluster) TotalFree() resources.Vector {
	var f resources.Vector
	for _, s := range c.servers {
		f = f.Add(s.Free())
	}
	return f
}

// TotalUsed returns the summed allocated capacity.
func (c *Cluster) TotalUsed() resources.Vector {
	return c.total.Sub(c.TotalFree())
}

// Allocate reserves demand on server id. It returns an error if the demand
// does not fit the server's free capacity.
func (c *Cluster) Allocate(id ServerID, demand resources.Vector) error {
	if !demand.IsValid() {
		return fmt.Errorf("cluster: invalid demand %v", demand)
	}
	s := c.Server(id)
	if s.failed {
		return fmt.Errorf("cluster: server %s is failed", s.Name)
	}
	if !demand.Fits(s.free) {
		return fmt.Errorf("cluster: demand %v does not fit free %v on %s", demand, s.free, s.Name)
	}
	s.free = s.free.Sub(demand)
	return nil
}

// Release returns demand to server id. It returns an error if the release
// would exceed the server's capacity (a double-release bug).
func (c *Cluster) Release(id ServerID, demand resources.Vector) error {
	if !demand.IsValid() {
		return fmt.Errorf("cluster: invalid release %v", demand)
	}
	s := c.Server(id)
	f := s.free.Add(demand)
	if !f.Fits(s.Capacity) {
		return fmt.Errorf("cluster: release %v would exceed capacity on %s (free %v, cap %v)",
			demand, s.Name, s.free, s.Capacity)
	}
	s.free = f
	return nil
}

// SetBackground sets the background-interference factor of server id;
// f must be in (0, 1]. Used by slowdown injection to model the
// time-varying co-located load of §2.
func (c *Cluster) SetBackground(id ServerID, f float64) error {
	if !(f > 0) || f > 1 {
		return fmt.Errorf("cluster: background factor %v out of (0,1]", f)
	}
	c.Server(id).background = f
	return nil
}

// CheckInvariants verifies the allocation ledger: every server's free
// capacity is within [0, capacity]. Tests and the simulator's paranoid
// mode call this after every slot.
func (c *Cluster) CheckInvariants() error {
	for _, s := range c.servers {
		if !s.free.IsValid() {
			return fmt.Errorf("cluster: server %s has negative free %v", s.Name, s.free)
		}
		if !s.free.Fits(s.Capacity) {
			return fmt.Errorf("cluster: server %s free %v exceeds capacity %v", s.Name, s.free, s.Capacity)
		}
	}
	return nil
}

// Reset returns every server to fully free and online with no
// background load.
func (c *Cluster) Reset() {
	for _, s := range c.servers {
		s.free = s.Capacity
		s.background = 1
		s.failed = false
	}
}
