package knapsack

import (
	"testing"
	"testing/quick"
)

func TestMaxCardinalityBasic(t *testing.T) {
	items := []Item{
		{ID: 1, Weight: 5},
		{ID: 2, Weight: 1},
		{ID: 3, Weight: 3},
		{ID: 4, Weight: 2},
	}
	got := MaxCardinality(items, 6)
	// smallest weights 1+2+3 = 6 → {2,4,3}
	want := []int{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestMaxCardinalityEdges(t *testing.T) {
	if got := MaxCardinality(nil, 10); len(got) != 0 {
		t.Errorf("empty items: %v", got)
	}
	if got := MaxCardinality([]Item{{ID: 1, Weight: 5}}, 4); len(got) != 0 {
		t.Errorf("too heavy: %v", got)
	}
	if got := MaxCardinality([]Item{{ID: 1, Weight: 0}, {ID: 2, Weight: 0}}, 0); len(got) != 2 {
		t.Errorf("zero weights fit zero budget: %v", got)
	}
	// Negative weights are skipped, not exploited.
	if got := MaxCardinality([]Item{{ID: 1, Weight: -5}, {ID: 2, Weight: 3}}, 3); len(got) != 1 || got[0] != 2 {
		t.Errorf("negative weight handling: %v", got)
	}
}

func TestMaxCardinalityDeterministicTies(t *testing.T) {
	items := []Item{{ID: 9, Weight: 2}, {ID: 3, Weight: 2}, {ID: 7, Weight: 2}}
	got := MaxCardinality(items, 4)
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("tie-break should prefer lower IDs: %v", got)
	}
}

func TestMaxCardinalityDoesNotMutate(t *testing.T) {
	items := []Item{{ID: 1, Weight: 9}, {ID: 2, Weight: 1}}
	MaxCardinality(items, 10)
	if items[0].ID != 1 || items[0].Weight != 9 {
		t.Error("input mutated")
	}
}

// Property: greedy matches brute force cardinality on small instances —
// the optimality claim behind Algorithm 1's oracle.
func TestMaxCardinalityOptimal(t *testing.T) {
	f := func(weights []uint8, budgetRaw uint16) bool {
		if len(weights) > 12 {
			weights = weights[:12]
		}
		items := make([]Item, len(weights))
		for i, w := range weights {
			items[i] = Item{ID: i, Weight: float64(w)}
		}
		budget := float64(budgetRaw % 1000)
		greedy := MaxCardinality(items, budget)
		exact := BruteForce(items, budget)
		return len(greedy) == len(exact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the greedy selection is always feasible.
func TestMaxCardinalityFeasible(t *testing.T) {
	f := func(weights []uint8, budgetRaw uint16) bool {
		items := make([]Item, len(weights))
		for i, w := range weights {
			items[i] = Item{ID: i, Weight: float64(w)}
		}
		budget := float64(budgetRaw % 2000)
		sel := MaxCardinality(items, budget)
		total := 0.0
		for _, id := range sel {
			total += items[id].Weight
		}
		return total <= budget
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: selection is monotone in budget.
func TestMaxCardinalityMonotoneBudget(t *testing.T) {
	f := func(weights []uint8, b1, b2 uint16) bool {
		items := make([]Item, len(weights))
		for i, w := range weights {
			items[i] = Item{ID: i, Weight: float64(w)}
		}
		lo, hi := float64(b1%1000), float64(b2%1000)
		if lo > hi {
			lo, hi = hi, lo
		}
		return len(MaxCardinality(items, lo)) <= len(MaxCardinality(items, hi))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBruteForcePanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BruteForce >20 items should panic")
		}
	}()
	BruteForce(make([]Item, 21), 1)
}
