package main

import (
	"testing"
)

// inputSizes summarizes the generated inputs of every workload for seed.
func inputSizes(t *testing.T, seed int64) map[string]int {
	t.Helper()
	sizes := map[string]int{}
	for _, d := range paperInputs(seed) {
		sizes[d.name] = d.db.TotalRows()
	}
	in, err := reachInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	knows, err := in.db.Table("Knows")
	if err != nil {
		t.Fatal(err)
	}
	sizes["knows"] = knows.NumRows()
	sizes["first_seed_person"] = int(in.seeds[0])
	return sizes
}

// TestSeedReachesGenerators: one seed gives the same inputs twice, and
// another seed changes the generated sizes.
func TestSeedReachesGenerators(t *testing.T) {
	a, again, b := inputSizes(t, 1), inputSizes(t, 1), inputSizes(t, 2)
	for k, v := range a {
		if again[k] != v {
			t.Errorf("seed 1 gives %s=%d, then %d", k, v, again[k])
		}
	}
	changed := 0
	for k, v := range a {
		if b[k] != v {
			changed++
		}
	}
	t.Logf("seed 1: %v; seed 2: %v", a, b)
	if changed < 3 {
		t.Errorf("seed 2 changed only %d of the input sizes %v (seed 1: %v)", changed, b, a)
	}
}

// TestTracedRunsRepeat: two traced runs at one seed report identical
// counts and sizes, and every output check passes.
func TestTracedRunsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	repeatable := map[string][]string{
		"paper-batch": {"extract.virtual_nodes", "core.bytes_per_edge.cdup", "core.bytes_per_edge.exp",
			"core.bytes_per_edge.dedup1", "core.bytes_per_edge.bitmap2"},
		"snb-reach":   {"datalogeval.derived_tuples", "datalogeval.iterations"},
		"serve-mixed": {"incremental.rebuilds"},
	}
	for wl, names := range repeatable {
		var runs [2]*result
		for i := range runs {
			res, err := runnerFor(wl)(config{workload: wl, seed: 7, seconds: 0.5, trace: true})
			if err != nil {
				t.Fatalf("%s: %v", wl, err)
			}
			if res.Failed != 0 {
				t.Fatalf("%s: %d failed checks: %v", wl, res.Failed, res.notes)
			}
			if len(res.Metrics) != len(perLayerUnits) {
				t.Errorf("%s: %d per-layer metrics, want %d", wl, len(res.Metrics), len(perLayerUnits))
			}
			runs[i] = res
		}
		for _, name := range names {
			a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
			if a != b {
				t.Errorf("%s: %s is %v, then %v", wl, name, a, b)
			}
			if name != "incremental.rebuilds" && a == 0 {
				t.Errorf("%s: %s is 0", wl, name)
			}
		}
	}
}
