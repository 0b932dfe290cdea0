package experiments

import (
	"context"
	"fmt"

	"drugtree/internal/core"
	"drugtree/internal/query"
)

// T10 — vectorized execution ablation. Same optimized planner, same
// dataset, three physical engines: row-at-a-time Volcano iteration
// (Vectorized=false), columnar batch execution (Vectorized=true), and
// batch execution with 4-way chunk parallelism. The committed
// expectation: vectorization wins the scan/filter-heavy classes by
// ≥2× because the row engine pays a per-row allocation (clone) plus
// boxed Value evaluation for every tuple, while the batch engine
// amortizes both over vecBatchSize-tuple typed-column loops; index
// point lookups touch a handful of rows, so both engines are parity
// there.

// t10Class is one measured query class. scanHeavy marks the classes
// the ≥2× expectation is committed on; the others are parity checks.
type t10Class struct {
	name      string
	scanHeavy bool
	dtql      string
}

// t10Classes mixes index point lookups (parity expected) with
// scan/filter-heavy shapes whose predicates are deliberately not
// usable by chooseAccessPath (arithmetic left-hand sides, LIKE), so
// both engines run the full sequential scan and the difference
// isolates the iteration model.
func t10Classes() []t10Class {
	return []t10Class{
		{"point lookup (index)", false,
			"SELECT * FROM proteins WHERE accession = 'DT00007'"},
		{"scan: arithmetic filter", true,
			"SELECT protein_id, affinity FROM activities WHERE affinity * 2.0 > 18.0"},
		{"scan: LIKE filter", true,
			"SELECT protein_id, ligand_id FROM activities WHERE ligand_id LIKE 'LIG019%'"},
		{"scan: projection arithmetic", true,
			"SELECT protein_id, affinity * 10.0 - 2.0 FROM activities WHERE affinity * 2.0 > 18.0"},
		{"hash join + arith filter", false,
			`SELECT p.accession, a.affinity FROM proteins p
			 JOIN activities a ON p.accession = a.protein_id
			 WHERE a.affinity * 2.0 > 18.0`},
		{"group aggregate", false,
			"SELECT protein_id, COUNT(*), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities GROUP BY protein_id"},
	}
}

// t10Options builds the per-engine query options: the full optimizer
// stack with only the physical-execution knobs varied.
func t10Options(vectorized bool, workers int) query.Options {
	o := query.DefaultOptions()
	o.Vectorized = vectorized
	o.Parallelism = workers
	return o
}

// t10Engine builds the standard benchmark dataset (200 proteins, 400
// ligands, ~24k activities — big enough that scans span many batches
// and per-query constant overheads vanish) under the given execution
// options. Caching is off so MeasureQuery times execution, not the
// semantic cache.
func t10Engine(ctx context.Context, seed int64, opts query.Options) (*core.Engine, error) {
	cfg := core.DefaultConfig()
	cfg.Method = core.TreeNJKmer
	cfg.CacheBytes = 0
	cfg.QueryOptions = opts
	e, _, err := buildStandardEngine(ctx, seed, 10, 20, 400, cfg)
	return e, err
}

// RunT10 measures the query classes on the three engines, then adds
// the F1-style subtree-filter rows at two tree sizes with indexes
// disabled, so the scan-dominated regime of the poster's lag curve is
// also covered by the ablation.
func RunT10(ctx context.Context, seed int64) (*Report, error) {
	row, err := t10Engine(ctx, seed, t10Options(false, 1))
	if err != nil {
		return nil, err
	}
	vec, err := t10Engine(ctx, seed, t10Options(true, 1))
	if err != nil {
		return nil, err
	}
	par, err := t10Engine(ctx, seed, t10Options(true, 4))
	if err != nil {
		return nil, err
	}
	const reps = 20
	rep := &Report{
		ID:     "T10",
		Title:  "Vectorized execution ablation: row vs batch vs batch+parallel (mean of 20 runs)",
		Header: []string{"query class", "row", "vectorized", "vec 4-way", "speedup (row/vec)"},
	}
	minScan, pointSpeedup := 0.0, 0.0
	measure := func(name string, scanHeavy bool, re, ve, pe *core.Engine, dtql string, n int) error {
		dr, err := MeasureQuery(ctx, re, dtql, n)
		if err != nil {
			return fmt.Errorf("T10 %s row: %w", name, err)
		}
		dv, err := MeasureQuery(ctx, ve, dtql, n)
		if err != nil {
			return fmt.Errorf("T10 %s vectorized: %w", name, err)
		}
		dp, err := MeasureQuery(ctx, pe, dtql, n)
		if err != nil {
			return fmt.Errorf("T10 %s vec-parallel: %w", name, err)
		}
		speedup := float64(dr) / float64(dv)
		if scanHeavy && (minScan == 0 || speedup < minScan) {
			minScan = speedup
		}
		if pointSpeedup == 0 { // first class is the point lookup
			pointSpeedup = speedup
		}
		rep.Rows = append(rep.Rows, []string{
			name,
			fmtDur(float64(dr.Nanoseconds()) / 1e3),
			fmtDur(float64(dv.Nanoseconds()) / 1e3),
			fmtDur(float64(dp.Nanoseconds()) / 1e3),
			fmt.Sprintf("%.1fx", speedup),
		})
		return nil
	}
	for _, cls := range t10Classes() {
		if err := measure(cls.name, cls.scanHeavy, row, vec, par, cls.dtql, reps); err != nil {
			return nil, err
		}
	}
	// The lag-curve regime: full-tree subtree filter with indexes off.
	for _, n := range []int{2000, 10000} {
		rowOpts := t10Options(false, 1)
		rowOpts.UseIndexes = false
		vecOpts := t10Options(true, 1)
		vecOpts.UseIndexes = false
		parOpts := t10Options(true, 4)
		parOpts.UseIndexes = false
		re, err := F1Engine(n, seed, rowOpts)
		if err != nil {
			return nil, err
		}
		ve, err := F1Engine(n, seed, vecOpts)
		if err != nil {
			return nil, err
		}
		pe, err := F1Engine(n, seed, parOpts)
		if err != nil {
			return nil, err
		}
		clade := f1PickClades(re.Tree())[1] // the ≈50-leaf clade
		q := fmt.Sprintf("SELECT pre, name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '%s')", clade)
		n2 := reps
		if n >= 10000 {
			n2 = 5
		}
		name := fmt.Sprintf("subtree filter, no index, n=%d", n)
		if err := measure(name, true, re, ve, pe, q, n2); err != nil {
			return nil, err
		}
	}
	rep.Notes = fmt.Sprintf(
		"expectation: vectorized wins scan/filter-heavy classes by ≥%.0fx, parity on point lookups; observed: min scan-class speedup %.1fx, point-lookup speedup %.1fx",
		t10SpeedupFloor, minScan, pointSpeedup)
	return rep, nil
}

// t10SpeedupFloor is the committed scan-class expectation (shared with
// the regression test so the gate and the note cannot drift apart).
const t10SpeedupFloor = 2.0
