package experiments

import "testing"

// TestGoldenDeterminism pins exact outputs for fixed seeds. These are
// regression tripwires, not correctness claims: any change to the RNG,
// the engine's event ordering, or a scheduler's tie-breaking shifts
// them. If a change here is intentional, update the constants and note
// the behavioural change in the commit.
func TestGoldenDeterminism(t *testing.T) {
	t.Run("figure2", func(t *testing.T) {
		r := Figure2()
		if r.Tetris != 46 || r.TetrisWithClones != 42 || r.OrderOnly != 34 || r.DollyMP != 28 {
			t.Fatalf("figure 2 drifted: %+v", r)
		}
	})

	t.Run("heavyload-quick", func(t *testing.T) {
		r, err := HeavyLoad(Quick(), "pagerank")
		if err != nil {
			t.Fatal(err)
		}
		// Same seed, same engine, same schedulers → identical totals
		// run over run.
		again, err := HeavyLoad(Quick(), "pagerank")
		if err != nil {
			t.Fatal(err)
		}
		for name, total := range r.TotalFlowtime {
			if again.TotalFlowtime[name] != total {
				t.Fatalf("%s not deterministic: %v vs %v", name, total, again.TotalFlowtime[name])
			}
		}
	})

	t.Run("cloning-analysis", func(t *testing.T) {
		r := CloningAnalysis()
		const eps = 1e-9
		if d := r.Flow1 - (9 + 2.0/3); d > eps || d < -eps {
			t.Fatalf("flow1 drifted: %v", r.Flow1)
		}
		if d := r.Flow3 - 11/1.5; d > eps || d < -eps {
			t.Fatalf("flow3 drifted: %v", r.Flow3)
		}
	})
}
