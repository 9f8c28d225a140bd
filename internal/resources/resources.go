// Package resources models the two-dimensional (CPU, memory) resource
// vectors used throughout DollyMP, together with the fit tests and the
// dominant-share computation of Eq. (9)/(15) in the paper.
//
// CPU is measured in milli-cores and memory in MiB so that all arithmetic
// is exact integer arithmetic; the trace generator and cluster builders
// agree on these units.
package resources

import "fmt"

// Vector is a demand or capacity across the two resource dimensions the
// paper schedules: CPU and memory. The zero Vector is an empty demand.
type Vector struct {
	// CPUMilli is CPU in milli-cores (1000 = one core).
	CPUMilli int64
	// MemMiB is memory in MiB.
	MemMiB int64
}

// Vec is shorthand for constructing a Vector.
func Vec(cpuMilli, memMiB int64) Vector {
	return Vector{CPUMilli: cpuMilli, MemMiB: memMiB}
}

// Cores builds a Vector from whole cores and whole GiB, the units the
// paper's cluster description (§6.1) uses.
func Cores(cores, gib int64) Vector {
	return Vector{CPUMilli: cores * 1000, MemMiB: gib * 1024}
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	return Vector{CPUMilli: v.CPUMilli + w.CPUMilli, MemMiB: v.MemMiB + w.MemMiB}
}

// Sub returns v - w. The result may have negative components; callers that
// care should check Fits first.
func (v Vector) Sub(w Vector) Vector {
	return Vector{CPUMilli: v.CPUMilli - w.CPUMilli, MemMiB: v.MemMiB - w.MemMiB}
}

// Scale returns v multiplied component-wise by k.
func (v Vector) Scale(k int64) Vector {
	return Vector{CPUMilli: v.CPUMilli * k, MemMiB: v.MemMiB * k}
}

// Fits reports whether a demand v can be satisfied by a free capacity w,
// i.e. v <= w component-wise.
func (v Vector) Fits(w Vector) bool {
	return v.CPUMilli <= w.CPUMilli && v.MemMiB <= w.MemMiB
}

// IsZero reports whether both components are zero.
func (v Vector) IsZero() bool { return v.CPUMilli == 0 && v.MemMiB == 0 }

// IsValid reports whether both components are non-negative.
func (v Vector) IsValid() bool { return v.CPUMilli >= 0 && v.MemMiB >= 0 }

// Dot is the inner product used by Tetris-style alignment scores: the
// demand vector against the remaining capacity of a server, each dimension
// normalized by the given total cluster capacity so that CPU and memory
// are commensurable. total must have positive components.
func (v Vector) Dot(w, total Vector) float64 {
	return float64(v.CPUMilli)*float64(w.CPUMilli)/(float64(total.CPUMilli)*float64(total.CPUMilli)) +
		float64(v.MemMiB)*float64(w.MemMiB)/(float64(total.MemMiB)*float64(total.MemMiB))
}

// Norm is a total capacity prepared for repeated Dot calls: the two
// squared denominators Dot recomputes on every call, computed once.
type Norm struct {
	cpu2, mem2 float64
}

// NormOf prepares total, which must have positive components.
func NormOf(total Vector) Norm {
	return Norm{
		cpu2: float64(total.CPUMilli) * float64(total.CPUMilli),
		mem2: float64(total.MemMiB) * float64(total.MemMiB),
	}
}

// Dot returns v.Dot(w, total) for the total n was built from, bit for
// bit: each term is still one product divided by the same denominator,
// only the denominator is no longer recomputed (there is no reciprocal
// multiply, which would round differently).
func (n Norm) Dot(v, w Vector) float64 {
	return float64(v.CPUMilli)*float64(w.CPUMilli)/n.cpu2 +
		float64(v.MemMiB)*float64(w.MemMiB)/n.mem2
}

// DominantShare implements Eq. (9)/(15): the maximum, across dimensions,
// of the demand divided by the total cluster capacity. total must have
// positive components.
func (v Vector) DominantShare(total Vector) float64 {
	c := float64(v.CPUMilli) / float64(total.CPUMilli)
	m := float64(v.MemMiB) / float64(total.MemMiB)
	if c >= m {
		return c
	}
	return m
}

// Max returns the component-wise maximum of v and w.
func (v Vector) Max(w Vector) Vector {
	out := v
	if w.CPUMilli > out.CPUMilli {
		out.CPUMilli = w.CPUMilli
	}
	if w.MemMiB > out.MemMiB {
		out.MemMiB = w.MemMiB
	}
	return out
}

// Min returns the component-wise minimum of v and w.
func (v Vector) Min(w Vector) Vector {
	out := v
	if w.CPUMilli < out.CPUMilli {
		out.CPUMilli = w.CPUMilli
	}
	if w.MemMiB < out.MemMiB {
		out.MemMiB = w.MemMiB
	}
	return out
}

// String formats the vector in human units.
func (v Vector) String() string {
	return fmt.Sprintf("%.2fc/%.1fGiB", float64(v.CPUMilli)/1000, float64(v.MemMiB)/1024)
}

// Usage accumulates resource-time products: the per-job "resource usage"
// metric of §6.3.1 (sum across normalized CPU and memory multiplied by
// task duration, summed over all copies of all tasks).
type Usage struct {
	CPUMilliSlots int64 // milli-core × slots
	MemMiBSlots   int64 // MiB × slots
}

// AddFor charges demand v held for the given number of slots.
func (u *Usage) AddFor(v Vector, slots int64) {
	u.CPUMilliSlots += v.CPUMilli * slots
	u.MemMiBSlots += v.MemMiB * slots
}

// Merge adds another usage record into u.
func (u *Usage) Merge(w Usage) {
	u.CPUMilliSlots += w.CPUMilliSlots
	u.MemMiBSlots += w.MemMiBSlots
}

// Normalized returns the usage with each dimension divided by the cluster
// total, i.e. in units of "fraction of cluster × slots", summed over the
// two dimensions as in Fig. 8b.
func (u Usage) Normalized(total Vector) float64 {
	return float64(u.CPUMilliSlots)/float64(total.CPUMilli) +
		float64(u.MemMiBSlots)/float64(total.MemMiB)
}
