package graphgen

// Equivalence of the default fused streaming pipeline against the
// operator-at-a-time materializing execution (extract.Options.NoStream,
// reached through Engine options by the withoutStreaming hook): both paths must produce structurally identical
// graphs — the streaming operators promise row-for-row identical output,
// so the condensed representation, adjacency lists, and bitmaps must all
// match, for any worker count and planner mode.

import (
	"testing"

	"graphgen/internal/datalog"
	"graphgen/internal/experiments"
	"graphgen/internal/extract"
)

// TestStreamingExtractionEquivalence runs the Table 1 workloads through
// the streaming and NoStream paths and compares coreFingerprints, in
// both planner modes and across the usual worker counts. It also checks
// that both paths report a positive peak-intermediate-rows figure —
// equivalence with a silently dead tracker would be vacuous.
func TestStreamingExtractionEquivalence(t *testing.T) {
	for _, d := range experiments.Table1Datasets(experiments.Scale{Quick: true}) {
		prog, err := datalog.Parse(d.Query)
		if err != nil {
			t.Fatal(err)
		}
		for _, condensed := range []bool{true, false} {
			for _, w := range append([]int{1}, equivWorkers...) {
				opts := extract.DefaultOptions()
				opts.ForceCondensed = condensed
				opts.Workers = w
				streaming, err := extract.Extract(d.DB, prog, opts)
				if err != nil {
					t.Fatalf("%s: streaming workers=%d: %v", d.Name, w, err)
				}
				opts.NoStream = true
				materializing, err := extract.Extract(d.DB, prog, opts)
				if err != nil {
					t.Fatalf("%s: NoStream workers=%d: %v", d.Name, w, err)
				}
				if coreFingerprint(streaming.Graph) != coreFingerprint(materializing.Graph) {
					t.Errorf("%s (condensed=%t workers=%d): streaming and NoStream graphs differ",
						d.Name, condensed, w)
				}
				if streaming.Stats.PeakIntermediateRows <= 0 || materializing.Stats.PeakIntermediateRows <= 0 {
					t.Errorf("%s (condensed=%t workers=%d): peak tracking dead (streaming=%d, NoStream=%d)",
						d.Name, condensed, w,
						streaming.Stats.PeakIntermediateRows, materializing.Stats.PeakIntermediateRows)
				}
			}
		}
	}
}

// withoutStreaming routes extraction and program evaluation through the
// materializing oracle: every relational operator materializes its full
// output before the next starts. It is a test hook, not public API.
func withoutStreaming() Option { return func(o *extract.Options) { o.NoStream = true } }

// TestWithoutStreamingOption exercises the hook end to end: a small
// extraction through Engine.Extract with withoutStreaming must equal
// the default.
func TestWithoutStreamingOption(t *testing.T) {
	d := experiments.Table1Datasets(experiments.Scale{Quick: true})[0]
	e := NewEngine(d.DB)
	def, err := e.Extract(d.Query)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := e.Extract(d.Query, withoutStreaming())
	if err != nil {
		t.Fatal(err)
	}
	if coreFingerprint(def.c) != coreFingerprint(legacy.c) {
		t.Error("withoutStreaming changed the extracted graph")
	}
}
