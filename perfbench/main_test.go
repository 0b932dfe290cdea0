package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"drugtree/internal/query"
	"drugtree/internal/store"
)

var tinySizes = sizes{
	leaves: 300, actsPerLeaf: 3, budget: 20, walkSteps: 2000, sessionLen: 10,
	families: 4, perFamily: 6, ligands: 20, density: 0.3,
	scanList: 8, minCladeLeaves: 2, maxCladeLeaves: 10,
	batchesPerSec: 200, churnK: 2,
	warmOps: 5, replayOps: 20, setups: 2,
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	return options{
		workload: workload, seed: 7, seconds: 300 * time.Millisecond, trace: trace,
		sz: tinySizes, tmp: tmp, spanFile: filepath.Join(tmp, "spans.tsv"),
	}
}

// benchmarkSpec reads the metric lists the repository's BENCHMARK.json
// declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayerSpec map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayerSpec = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayerSpec[m.Name] = m.Unit
	}
	return endToEnd, perLayerSpec
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced: every answer must check out, and the report must carry
// exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layers := benchmarkSpec(t)
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				o := tinyOptions(t, w, trace)
				out, err := run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if !out.rep.Correct || out.rep.Attempted == 0 || out.rep.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d errs=%v", out.rep.Correct, out.rep.Attempted, out.rep.Failed, out.errs)
				}
				want := e2e
				if trace {
					want = layers
				}
				var got []string
				for name, m := range out.rep.Metrics {
					got = append(got, name)
					if want[name] != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, want[name])
					}
				}
				if len(got) != len(want) {
					sort.Strings(got)
					t.Errorf("reported %d metrics %v, BENCHMARK.json declares %d", len(got), got, len(want))
				}
				if !trace {
					for name, m := range out.rep.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				} else if _, err := os.Stat(o.spanFile); err != nil {
					t.Errorf("span file: %v", err)
				}
			})
		}
	}
}

// TestCorruptedAnswerFailsRun proves the answer checks have teeth: a
// subtree aggregate whose COUNT is off by one must be caught on every
// workload, and the run must report itself incorrect.
func TestCorruptedAnswerFailsRun(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		w := w
		t.Run(w, func(t *testing.T) {
			o := tinyOptions(t, w, false)
			o.mutate = func(class string, res *query.Result) {
				if class == classSubtree && len(res.Rows) == 1 {
					res.Rows[0][0] = store.IntValue(res.Rows[0][0].I + 1)
				}
			}
			out, err := run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if out.rep.Correct || out.tally.wrong == 0 || len(out.errs) == 0 {
				t.Fatalf("corrupted answers not caught: correct=%v wrong=%d errs=%v", out.rep.Correct, out.tally.wrong, out.errs)
			}
			if sr := out.rep.Metrics["success_rate"].Value; sr >= 1 {
				t.Errorf("success_rate = %v with wrong answers", sr)
			}
		})
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestSameMultisetTolerance(t *testing.T) {
	a := []store.Row{{store.StringValue("x"), store.FloatValue(1.0000000000001)}, {store.StringValue("y"), store.IntValue(2)}}
	b := []store.Row{{store.StringValue("y"), store.IntValue(2)}, {store.StringValue("x"), store.FloatValue(1)}}
	if err := sameMultiset(a, b); err != nil {
		t.Errorf("reordered rows with last-bit float difference: %v", err)
	}
	b[1][1] = store.FloatValue(1.001)
	if err := sameMultiset(a, b); err == nil {
		t.Error("a float off by 1e-3 passed")
	}
}

func TestGatherCounts(t *testing.T) {
	shards, pruned := gatherCounts("Gather [shards=1 pruned=3 mode=scatter]\n  IndexScan t")
	if shards != 1 || pruned != 3 {
		t.Errorf("got shards=%d pruned=%d", shards, pruned)
	}
}
