// Package knapsack implements the optimization oracle of Algorithm 1,
// Step 6: maximize the number of selected items subject to a total-weight
// budget. Because all profits equal one, a greedy smallest-weight-first
// selection is provably optimal (an exchange argument: any solution that
// skips a lighter item for a heavier one can be improved), which is the
// O(n log n) oracle the paper's complexity analysis assumes.
//
// A brute-force reference is included for the property tests.
package knapsack

import "sort"

// Item is a knapsack candidate.
type Item struct {
	// ID is an opaque caller identifier carried through selection.
	ID int
	// Weight is the item's cost against the budget (a job's effective
	// volume in Algorithm 1). Must be non-negative.
	Weight float64
}

// MaxCardinality solves the unit-profit knapsack: it returns the IDs of a
// maximum-cardinality subset whose total weight does not exceed budget.
// Ties are broken toward lower ID so results are deterministic. The input
// slice is not modified.
func MaxCardinality(items []Item, budget float64) []int {
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Weight != sorted[j].Weight {
			return sorted[i].Weight < sorted[j].Weight
		}
		return sorted[i].ID < sorted[j].ID
	})
	var ids []int
	remaining := budget
	for _, it := range sorted {
		if it.Weight < 0 {
			continue // defensive: negative weights are invalid input
		}
		if it.Weight <= remaining {
			ids = append(ids, it.ID)
			remaining -= it.Weight
		}
	}
	sort.Ints(ids)
	return ids
}

// BruteForce enumerates all 2^n subsets and returns a maximum-cardinality
// feasible subset (unit profits). Only usable for small n; it is the
// reference oracle the property tests compare MaxCardinality against.
func BruteForce(items []Item, budget float64) []int {
	n := len(items)
	if n > 20 {
		panic("knapsack: BruteForce limited to 20 items")
	}
	bestCount := -1
	var bestMask uint32
	for mask := uint32(0); mask < 1<<n; mask++ {
		total := 0.0
		count := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				total += items[i].Weight
				count++
			}
		}
		if total <= budget && count > bestCount {
			bestCount = count
			bestMask = mask
		}
	}
	var ids []int
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			ids = append(ids, items[i].ID)
		}
	}
	sort.Ints(ids)
	return ids
}
