package experiments

import "io"

// Result is what an experiment returns: plain data, which
// dollymp-bench -format json marshals, that renders itself as text.
type Result interface {
	Write(io.Writer) error
}

// Group bundles several results under one experiment id; as JSON it is
// an array of them.
type Group []Result

// Write renders each member in order.
func (g Group) Write(w io.Writer) error {
	for _, r := range g {
		if err := r.Write(w); err != nil {
			return err
		}
	}
	return nil
}

// Experiment is one entry of the paper's evaluation.
type Experiment struct {
	ID      string // dollymp-bench -fig <ID>, BenchmarkFigures/<ID>
	Section string // where the paper states the result
	Desc    string
	Run     func(Scale) (Result, error)
}

// All is the evaluation, in the order dollymp-bench prints it. An id
// holding a slash belongs to the group named by its prefix (5-7 runs
// Figs. 5–7 once per application).
var All = []Experiment{
	{"1", "§2 Fig. 1", "repeated WordCount, cloning efficiency", of(Figure1)},
	{"2", "§2 Fig. 2", "three-job motivating example (§2)", func(Scale) (Result, error) { return Figure2(), nil }},
	{"4", "§6.2.1 Fig. 4", "lightly loaded deployment (flowtime + running CDF)", of(Figure4)},
	{"5-7/pagerank", "§6.2.2 Figs. 5–7", "heavy-load PageRank (running/flowtime CDFs, cumulative)",
		func(sc Scale) (Result, error) { return HeavyLoad(sc, "pagerank") }},
	{"5-7/wordcount", "§6.2.2 Figs. 5–7", "heavy-load WordCount (running/flowtime CDFs, cumulative)",
		func(sc Scale) (Result, error) { return HeavyLoad(sc, "wordcount") }},
	{"8", "§6.3.1 Fig. 8", "trace-driven: speedup vs Tetris, resources vs DRF", of(Figure8)},
	{"9", "§6.3.1 Fig. 9", "clone-count sweep", of(Figure9)},
	{"10", "§6.3.1 Fig. 10", "cloning effect vs cluster load", of(Figure10)},
	{"11", "§6.3.2 Fig. 11", "DollyMP² vs Carbyne", of(Figure11)},
	{"overhead", "§6.3.3", "scheduling overhead (§6.3.3)", of(Overhead)},
	{"ablations", "§6.1", "design-choice ablations (δ, r, Tetris ε)",
		each(of(AblationCloneBudget), of(AblationVarianceFactor), of(AblationTetrisEpsilon))},
	{"redundancy", "§1", "cloning vs speculation under identical priorities (§1)", of(Redundancy)},
	{"learning", "§8", "straggler-avoidance extension (§8 future work)", of(StragglerAvoidance)},
	{"estimation", "§5.2", "AM statistics estimation ablation (§5.2)", of(Estimation)},
	{"locality", "§5.2", "two-level YARN architecture vs flat (§5.2)", of(Locality)},
	{"analysis", "§4.1, Thm. 1", "§4.1 cloning analysis + Theorem 1 check",
		each(func(Scale) (Result, error) { return CloningAnalysis(), nil }, of(CompetitiveRatio))},
}

// of adapts an experiment's typed entry point to an entry's Run.
func of[R Result](f func(Scale) (R, error)) func(Scale) (Result, error) {
	return func(sc Scale) (Result, error) { return f(sc) }
}

// each runs several experiments at one scale, in order, as one Group.
func each(runs ...func(Scale) (Result, error)) func(Scale) (Result, error) {
	return func(sc Scale) (Result, error) {
		g := make(Group, len(runs))
		for i, run := range runs {
			r, err := run(sc)
			if err != nil {
				return nil, err
			}
			g[i] = r
		}
		return g, nil
	}
}
