package cluster

import (
	"fmt"
	"testing"
	"testing/quick"

	"dollymp/internal/resources"
)

func twoServer(t *testing.T) *Cluster {
	t.Helper()
	c, err := New([]Spec{
		{Name: "a", Capacity: resources.Cores(8, 16), Speed: 1},
		{Name: "b", Capacity: resources.Cores(16, 32), Speed: 1.5, Rack: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty fleet should error")
	}
	if _, err := New([]Spec{{Capacity: resources.Vec(0, 0), Speed: 1}}); err == nil {
		t.Error("zero capacity should error")
	}
	if _, err := New([]Spec{{Capacity: resources.Cores(1, 1), Speed: 0}}); err == nil {
		t.Error("zero speed should error")
	}
	if _, err := New([]Spec{{Capacity: resources.Vec(-1, 5), Speed: 1}}); err == nil {
		t.Error("negative capacity should error")
	}
}

// TestIDIsPosition pins the fleet's one ID rule on every constructor and
// on each shard of a partition: a server's ID is its position, and
// Contains is true exactly on [0, Len()).
func TestIDIsPosition(t *testing.T) {
	fleets := map[string]*Cluster{
		"New":        twoServer(t),
		"Uniform":    Uniform(3, resources.Cores(4, 8)),
		"Testbed30":  Testbed30(),
		"LargeFleet": LargeFleet(97, 1),
	}
	shards, err := Partition(LargeFleet(97, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	for k, shard := range shards {
		fleets[fmt.Sprintf("Partition/%d", k)] = shard
	}
	for name, c := range fleets {
		for i, s := range c.Servers() {
			if s.ID != ServerID(i) || c.Server(ServerID(i)) != s {
				t.Errorf("%s: position %d holds ID %d, Server(%d) = %p, want %p", name, i, s.ID, i, c.Server(ServerID(i)), s)
			}
		}
		for id, want := range map[ServerID]bool{0: true, ServerID(c.Len() - 1): true, -1: false, ServerID(c.Len()): false} {
			if c.Contains(id) != want {
				t.Errorf("%s: Contains(%d) = %v, want %v", name, id, !want, want)
			}
		}
	}
}

func TestTotals(t *testing.T) {
	c := twoServer(t)
	if got := c.Total(); got != resources.Cores(24, 48) {
		t.Errorf("total: %v", got)
	}
	if got := c.TotalFree(); got != resources.Cores(24, 48) {
		t.Errorf("free: %v", got)
	}
	if got := c.TotalUsed(); !got.IsZero() {
		t.Errorf("used: %v", got)
	}
	if c.Len() != 2 {
		t.Errorf("len: %d", c.Len())
	}
}

func TestAllocateRelease(t *testing.T) {
	c := twoServer(t)
	d := resources.Cores(4, 8)
	if err := c.Allocate(0, d); err != nil {
		t.Fatal(err)
	}
	if got := c.Server(0).Free(); got != resources.Cores(4, 8) {
		t.Errorf("free after alloc: %v", got)
	}
	if got := c.Server(0).Used(); got != d {
		t.Errorf("used after alloc: %v", got)
	}
	if got := c.TotalUsed(); got != d {
		t.Errorf("cluster used: %v", got)
	}
	if err := c.Release(0, d); err != nil {
		t.Fatal(err)
	}
	if got := c.Server(0).Free(); got != c.Server(0).Capacity {
		t.Errorf("free after release: %v", got)
	}
}

func TestAllocateOverflow(t *testing.T) {
	c := twoServer(t)
	if err := c.Allocate(0, resources.Cores(9, 1)); err == nil {
		t.Error("over-CPU alloc should fail")
	}
	if err := c.Allocate(0, resources.Cores(1, 17)); err == nil {
		t.Error("over-mem alloc should fail")
	}
	if err := c.Allocate(0, resources.Vec(-1, 0)); err == nil {
		t.Error("negative alloc should fail")
	}
	// Failed allocation must not mutate state.
	if got := c.Server(0).Free(); got != c.Server(0).Capacity {
		t.Errorf("failed alloc mutated free: %v", got)
	}
}

func TestDoubleRelease(t *testing.T) {
	c := twoServer(t)
	if err := c.Release(0, resources.Cores(1, 1)); err == nil {
		t.Error("release beyond capacity should fail")
	}
	if err := c.Release(0, resources.Vec(-5, 0)); err == nil {
		t.Error("negative release should fail")
	}
}

func TestBackground(t *testing.T) {
	c := twoServer(t)
	s := c.Server(1)
	if got := s.EffectiveSpeed(); got != 1.5 {
		t.Errorf("effective speed: %v", got)
	}
	if err := c.SetBackground(1, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := s.EffectiveSpeed(); got != 0.75 {
		t.Errorf("slowed speed: %v", got)
	}
	if err := c.SetBackground(1, 0); err == nil {
		t.Error("zero background should fail")
	}
	if err := c.SetBackground(1, 1.5); err == nil {
		t.Error("background > 1 should fail")
	}
}

func TestFailRestore(t *testing.T) {
	c := twoServer(t)
	if err := c.Allocate(0, resources.Cores(2, 2)); err != nil {
		t.Fatal(err)
	}
	// Restoring a healthy server must not wipe its ledger.
	c.Restore(0)
	if got := c.Server(0).Used(); got != resources.Cores(2, 2) {
		t.Fatalf("restore wiped healthy ledger: used %v", got)
	}
	// Fail: no capacity visible, allocations rejected.
	if err := c.Release(0, resources.Cores(2, 2)); err != nil {
		t.Fatal(err)
	}
	c.Fail(0)
	if !c.Server(0).Failed() {
		t.Fatal("not failed")
	}
	if got := c.Server(0).Free(); !got.IsZero() {
		t.Fatalf("failed server shows free %v", got)
	}
	if err := c.Allocate(0, resources.Cores(1, 1)); err == nil {
		t.Fatal("allocation on failed server accepted")
	}
	if got := c.TotalFree(); got != c.Server(1).Capacity {
		t.Fatalf("total free should exclude failed server: %v", got)
	}
	c.Restore(0)
	if c.Server(0).Failed() || c.Server(0).Free() != c.Server(0).Capacity {
		t.Fatal("restore did not bring server back")
	}
	// Reset clears failure too.
	c.Fail(1)
	c.Reset()
	if c.Server(1).Failed() {
		t.Fatal("reset should clear failures")
	}
}

func TestReset(t *testing.T) {
	c := twoServer(t)
	if err := c.Allocate(0, resources.Cores(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetBackground(0, 0.5); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if got := c.TotalFree(); got != c.Total() {
		t.Errorf("reset free: %v", got)
	}
	if got := c.Server(0).EffectiveSpeed(); got != 1 {
		t.Errorf("reset speed: %v", got)
	}
}

func TestInvariantsAfterRandomOps(t *testing.T) {
	// Property: any sequence of successful Allocate/Release keeps the
	// ledger consistent.
	f := func(ops []uint16) bool {
		c, err := New([]Spec{
			{Name: "a", Capacity: resources.Cores(8, 16), Speed: 1},
			{Name: "b", Capacity: resources.Cores(16, 32), Speed: 1.5},
		})
		if err != nil {
			return false
		}
		type alloc struct {
			id ServerID
			d  resources.Vector
		}
		var live []alloc
		for _, op := range ops {
			id := ServerID(int(op) % c.Len())
			d := resources.Vec(int64(op%5000), int64(op%9000))
			if op%3 == 0 && len(live) > 0 {
				a := live[len(live)-1]
				live = live[:len(live)-1]
				if err := c.Release(a.id, a.d); err != nil {
					return false
				}
			} else if err := c.Allocate(id, d); err == nil {
				live = append(live, alloc{id, d})
			}
			if err := c.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTestbed30(t *testing.T) {
	c := Testbed30()
	if c.Len() != 30 {
		t.Fatalf("want 30 nodes, got %d", c.Len())
	}
	// §6.1: 328 cores total.
	if got := c.Total().CPUMilli; got != 328_000 {
		t.Errorf("total cores: got %d milli, want 328000", got)
	}
	racks := map[int]bool{}
	for _, s := range c.Servers() {
		racks[s.Rack] = true
		if s.Speed <= 0 {
			t.Errorf("server %s speed %v", s.Name, s.Speed)
		}
	}
	if len(racks) != 2 {
		t.Errorf("want 2 racks, got %d", len(racks))
	}
}

func TestLargeFleetDeterministic(t *testing.T) {
	a := LargeFleet(100, 9)
	b := LargeFleet(100, 9)
	if a.Len() != 100 {
		t.Fatal("len")
	}
	for i := range a.Servers() {
		sa, sb := a.Server(ServerID(i)), b.Server(ServerID(i))
		if sa.Capacity != sb.Capacity || sa.Speed != sb.Speed {
			t.Fatalf("fleet not deterministic at %d", i)
		}
	}
	// Heterogeneity: more than one distinct capacity class.
	caps := map[resources.Vector]bool{}
	for _, s := range a.Servers() {
		caps[s.Capacity] = true
	}
	if len(caps) < 3 {
		t.Errorf("want 3 machine classes, got %d", len(caps))
	}
}

func TestUniform(t *testing.T) {
	c := Uniform(4, resources.Cores(1, 1))
	if c.Len() != 4 || c.Total() != resources.Cores(4, 4) {
		t.Errorf("uniform: len=%d total=%v", c.Len(), c.Total())
	}
}
