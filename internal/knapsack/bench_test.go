package knapsack

import (
	"testing"

	"dollymp/internal/stats"
)

func randomItems(n int, seed uint64) []Item {
	rng := stats.NewRNG(seed)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Weight: rng.Range(0.1, 10)}
	}
	return items
}

// BenchmarkMaxCardinality measures the Algorithm 1 oracle at the 1K-job
// scale of the §6.3.3 overhead experiment.
func BenchmarkMaxCardinality(b *testing.B) {
	items := randomItems(1000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := MaxCardinality(items, 500); len(got) == 0 {
			b.Fatal("empty selection")
		}
	}
}
