package main

import (
	"strings"
	"time"

	"graphgen"
)

// perLayerUnits lists every per-layer metric a traced run reports, with
// its unit. A workload that makes no call into a layer reports that
// layer's metrics as 0: the layer did no work there.
var perLayerUnits = map[string]string{
	"relstore.scan_self_s":            "s",
	"relstore.join_self_s":            "s",
	"relstore.rows_examined_per_edge": "ratio",
	"relstore.peak_intermediate_rows": "count",
	"relstore.mutate_us_p50":          "us",
	"datalogeval.eval_s":              "s",
	"datalogeval.iterations":          "count",
	"datalogeval.derived_tuples":      "count",
	"datalogeval.useful_ratio":        "ratio",
	"extract.time_s.dblp":             "s",
	"extract.time_s.imdb":             "s",
	"extract.time_s.tpch":             "s",
	"extract.time_s.univ":             "s",
	"extract.exp_time_s":              "s",
	"extract.compression":             "ratio",
	"extract.virtual_nodes":           "count",
	"dedup.dedup1_s":                  "s",
	"dedup.bitmap2_s":                 "s",
	"core.bytes_per_edge.cdup":        "B",
	"core.bytes_per_edge.exp":         "B",
	"core.bytes_per_edge.dedup1":      "B",
	"core.bytes_per_edge.bitmap2":     "B",
	"core.clone_ms_p50":               "ms",
	"core.neighbors_us_p50":           "us",
	"algo.degree_s.cdup":              "s",
	"algo.degree_s.dedup1":            "s",
	"algo.degree_s.bitmap2":           "s",
	"algo.bfs_s.cdup":                 "s",
	"algo.bfs_s.dedup1":               "s",
	"algo.bfs_s.bitmap2":              "s",
	"algo.pagerank_s.cdup":            "s",
	"algo.pagerank_s.dedup1":          "s",
	"algo.pagerank_s.bitmap2":         "s",
	"algo.components_s.cdup":          "s",
	"algo.components_s.dedup1":        "s",
	"algo.components_s.bitmap2":       "s",
	"workload.snap_ms_p50":            "ms",
	"workload.sssp_ms_p50":            "ms",
	"workload.closeness_ms_p50":       "ms",
	"incremental.flush_us_p50":        "us",
	"incremental.flush_us_p99":        "us",
	"incremental.deltas_per_flush":    "count",
	"incremental.transitions":         "count",
	"incremental.rebuilds":            "count",
	"server.cache_hit_ratio":          "ratio",
	"server.compute_ms_p50":           "ms",
	"server.overhead_ms_p50":          "ms",
	"go.gc_cpu_fraction":              "ratio",
	"go.gc_cycles_per_op":             "count",
	"obs.trace_overhead_ratio":        "ratio",
}

// fillPerLayer adds every per-layer metric the workload did not set, as 0.
func fillPerLayer(res *result) {
	for name, unit := range perLayerUnits {
		if _, ok := res.Metrics[name]; !ok {
			res.set(name, 0, unit)
		}
	}
}

// joinOps are the relstore operator kinds that join two inputs.
var joinOps = map[string]bool{"join": true, "hash_join": true, "table_join": true, "cross": true}

// relstoreOps are every relstore operator kind a profile can hold.
var relstoreOps = map[string]bool{"scan": true, "select": true, "filter": true, "project": true,
	"join": true, "hash_join": true, "table_join": true, "cross": true}

// profileTotals reduces operator trees to what the relstore and
// datalogeval metrics need. Operator spans are leaves, so an operator's
// self time is its span's duration; the spans of one pull-based pipeline
// are open at the same time, so these are lifetimes, not exclusive CPU.
type profileTotals struct {
	scan, join time.Duration
	rows       int64 // rows emitted by relstore operators
	// ruleFresh counts the fresh tuples datalogeval rule derivations
	// added; ruleBody the rows their body pipelines produced.
	ruleFresh, ruleBody int64
}

func reduceProfiles(profiles []*graphgen.Profile) profileTotals {
	var t profileTotals
	for _, prof := range profiles {
		prof.Walk(func(s *graphgen.Profile) {
			d := time.Duration(s.DurationUS) * time.Microsecond
			switch {
			case s.Op == "scan":
				t.scan += d
			case joinOps[s.Op]:
				t.join += d
			}
			if relstoreOps[s.Op] {
				t.rows += s.Rows
			}
			if s.Op == "rule" && len(s.Children) > 0 {
				// The last operator a rule body builds is the pipeline's
				// output.
				t.ruleFresh += s.Rows
				t.ruleBody += s.Children[len(s.Children)-1].Rows
			}
		})
	}
	return t
}

// setBatchLayers sets the per-layer metrics of a traced batch run. Times
// are means per traced pass; counts and sizes come from the last pass.
func setBatchLayers(res *result, tr *tracer, traced, plain []*batchPass, ps phaseStats) {
	n := float64(len(traced))
	perPass := func(d time.Duration) float64 { return d.Seconds() / n }
	// spanSum totals the self time of the spans named name whose
	// attribute ends in suffix.
	self := tr.selfTimes()
	spanSum := func(name, suffix string) time.Duration {
		var sum time.Duration
		for i, self := range self {
			if s := tr.spans[i]; s.Name == name && strings.HasSuffix(s.Attr, suffix) {
				sum += self
			}
		}
		return sum
	}

	var profiles []*graphgen.Profile
	var evalDur time.Duration
	var logical int64
	for _, p := range traced {
		profiles = append(profiles, p.profiles...)
		evalDur += p.eval.Duration
		logical += p.logical["cdup"]
	}
	pt := reduceProfiles(profiles)
	res.set("relstore.scan_self_s", perPass(pt.scan), "s")
	res.set("relstore.join_self_s", perPass(pt.join), "s")
	res.set("relstore.rows_examined_per_edge", ratio(float64(pt.rows), float64(logical)), "ratio")

	last := traced[len(traced)-1]
	res.set("relstore.peak_intermediate_rows", float64(last.peakIntermediate), "count")
	res.set("datalogeval.eval_s", perPass(evalDur), "s")
	res.set("datalogeval.iterations", float64(last.eval.Iterations), "count")
	res.set("datalogeval.derived_tuples", float64(last.eval.DerivedTuples), "count")
	res.set("datalogeval.useful_ratio", ratio(float64(pt.ruleFresh), float64(pt.ruleBody)), "ratio")

	for _, ds := range []string{"dblp", "imdb", "tpch", "univ"} {
		res.set("extract.time_s."+ds, perPass(spanSum("extract.Extract", ds+"/cdup")), "s")
	}
	res.set("extract.exp_time_s", perPass(spanSum("extract.Extract", "/exp")), "s")
	res.set("extract.compression", ratio(float64(last.logical["cdup"]), float64(last.repEdges["cdup"])), "ratio")
	res.set("extract.virtual_nodes", float64(last.virtualNodes), "count")
	res.set("dedup.dedup1_s", perPass(spanSum("dedup.As", "/dedup1")), "s")
	res.set("dedup.bitmap2_s", perPass(spanSum("dedup.As", "/bitmap2")), "s")
	for _, rep := range []string{"cdup", "exp", "dedup1", "bitmap2"} {
		res.set("core.bytes_per_edge."+rep, ratio(float64(last.memBytes[rep]), float64(last.logical[rep])), "B")
	}
	for _, a := range []struct{ metric, span string }{
		{"degree", "algo.Degrees"}, {"bfs", "algo.BFS"}, {"pagerank", "algo.PageRank"}, {"components", "algo.ConnectedComponents"},
	} {
		for _, rep := range repNames {
			res.set("algo."+a.metric+"_s."+rep, perPass(spanSum(a.span, "/"+rep)), "s")
		}
	}

	var plainWall, tracedWall []float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	res.set("obs.trace_overhead_ratio", ratio(median(tracedWall), median(plainWall)), "ratio")
	setGoLayer(res, ps, int64(len(plain)+len(traced)))
	res.notef("traced passes %d, untraced passes %d", len(traced), len(plain))
	fillPerLayer(res)
}
