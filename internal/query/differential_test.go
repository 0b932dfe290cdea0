package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"drugtree/internal/datagen"
	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// Differential harness: every query must behave identically across
// the engine matrix — the row-at-a-time executor, which always runs
// serially, is the reference, and the vectorized-serial and
// vectorized-parallel configurations must both match it. Plans must
// match exactly (neither parallel dispatch nor batch execution is
// visible to the optimizer), row counts must match, and result
// multisets must match; for ORDER BY queries the sort key sequence
// must match (ties may legitimately permute whole rows, as in the
// naive/optimized fuzz test).

// diffParallelism is the worker count the parallel sides run with.
// Forced above 1 explicitly so the harness exercises the parallel
// operators even on single-core runners where GOMAXPROCS(0) == 1.
const diffParallelism = 4

func parallelOptions(n int) Options {
	o := DefaultOptions()
	o.Parallelism = n
	return o
}

func serialOptions() Options {
	o := DefaultOptions()
	o.Parallelism = 1
	return o
}

func rowOptions(o Options) Options {
	o.Vectorized = false
	return o
}

// diffMatrix lists the engine configurations checked against the
// row-serial baseline on every differential query.
func diffMatrix() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"vec-serial", serialOptions()},
		{"vec-parallel", parallelOptions(diffParallelism)},
	}
}

// canonKey encodes a row for multiset comparison with floats rounded
// to 10 significant digits. SUM/AVG associate additions differently
// across chunk boundaries (and across serial runs, whose scan order
// is map-iteration order), so bit-exact float comparison is unsound;
// everything else compares exactly.
func canonKey(r store.Row) string {
	var b []byte
	for _, v := range r {
		if v.K == store.KindFloat {
			b = append(b, fmt.Sprintf("|%.9e", v.F)...)
			continue
		}
		b = append(b, '|')
		b = store.AppendValue(b, v)
	}
	return string(b)
}

// sameRowMultisetCanon compares two row slices ignoring order, with
// canonKey equality.
func sameRowMultisetCanon(a, b []store.Row) bool {
	if len(a) != len(b) {
		return false
	}
	counts := map[string]int{}
	for _, r := range a {
		counts[canonKey(r)]++
	}
	for _, r := range b {
		k := canonKey(r)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// assertSameResult applies the harness comparison rules.
func assertSameResult(t *testing.T, q string, ordered bool, serial, parallel *Result) {
	t.Helper()
	if serial.Plan != parallel.Plan {
		t.Fatalf("query %q: plans diverge\nserial:\n%s\nparallel:\n%s", q, serial.Plan, parallel.Plan)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("query %q: row counts diverge: serial %d, parallel %d",
			q, len(serial.Rows), len(parallel.Rows))
	}
	if ordered {
		for j := range serial.Rows {
			a, b := serial.Rows[j][0], parallel.Rows[j][0]
			if a.K != b.K || a.String() != b.String() {
				t.Fatalf("query %q: sort key %d differs: %v vs %v", q, j, a, b)
			}
		}
		return
	}
	if !sameRowMultisetCanon(serial.Rows, parallel.Rows) {
		t.Fatalf("query %q: result multisets differ (%d rows each)", q, len(serial.Rows))
	}
}

func runDifferential(t *testing.T, cat Catalog, q string, ordered bool) {
	t.Helper()
	base, err := NewEngine(cat, rowOptions(serialOptions())).Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query %q: row-serial baseline: %v", q, err)
	}
	for _, c := range diffMatrix() {
		got, err := NewEngine(cat, c.opts).Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %q: %s: %v", q, c.name, err)
		}
		assertSameResult(t, q+" ["+c.name+"]", ordered, base, got)
	}
}

// TestDifferentialCorpus runs a fixed corpus covering every operator
// the parallel executor touches: chunked scans, hash joins, merge
// joins, nested-loop joins, aggregation (plain, grouped, DISTINCT),
// subqueries, tree operators, sorts, and top-k.
func TestDifferentialCorpus(t *testing.T) {
	cat := testCatalog(t)
	corpus := []struct {
		q       string
		ordered bool
	}{
		{"SELECT * FROM proteins", false},
		{"SELECT accession FROM proteins WHERE family = 'FAM1'", false},
		{"SELECT accession FROM proteins WHERE length > 130 AND family != 'FAM0'", false},
		{"SELECT accession FROM proteins WHERE family = 'FAM1' OR length BETWEEN 110 AND 120", false},
		{"SELECT p.accession, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id", false},
		{`SELECT p.accession, l.weight FROM proteins p
		  JOIN activities a ON p.accession = a.protein_id
		  JOIN ligands l ON a.ligand_id = l.ligand_id WHERE a.affinity > 7`, false},
		{"SELECT COUNT(*) FROM activities", false},
		{"SELECT COUNT(*), SUM(affinity), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities", false},
		{"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family", false},
		{"SELECT protein_id, COUNT(DISTINCT ligand_id) FROM activities GROUP BY protein_id", false},
		{"SELECT COUNT(DISTINCT family) FROM proteins", false},
		{`SELECT p.family, COUNT(*) AS n, AVG(a.affinity) FROM proteins p
		  JOIN activities a ON p.accession = a.protein_id GROUP BY p.family`, false},
		{"SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 7", true},
		{"SELECT accession FROM proteins ORDER BY accession", true},
		{"SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, 'FAM0') AND is_leaf = TRUE", false},
		{"SELECT name FROM tree_nodes WHERE ANCESTOR_OF(pre, 'P004')", false},
		{"SELECT protein_id, affinity FROM activities WHERE WITHIN_SUBTREE(protein_id, 'FAM0') AND affinity > 5", false},
		{"SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, 'P004')", false},
		{"SELECT accession FROM proteins WHERE accession IN (SELECT protein_id FROM activities WHERE affinity > 8)", false},
		{"SELECT accession FROM proteins WHERE length > (SELECT AVG(length) FROM proteins)", false},
		{`SELECT a.protein_id, l.ligand_id FROM activities a
		  JOIN ligands l ON a.affinity < l.weight WHERE l.weight < 110`, false},
		{"SELECT COUNT(*) FROM proteins WHERE family = 'NOSUCH'", false},
	}
	for _, c := range corpus {
		runDifferential(t, cat, c.q, c.ordered)
	}
}

// TestDifferentialFuzz pushes the generated corpus through both
// executors across several seeds.
func TestDifferentialFuzz(t *testing.T) {
	cat := testCatalog(t)
	for _, seed := range []int64{1, 42, 2026} {
		g := &queryGen{rng: rand.New(rand.NewSource(seed))}
		trials := 120
		if testing.Short() {
			trials = 30
		}
		for i := 0; i < trials; i++ {
			q, ordered := g.generate()
			runDifferential(t, cat, q, ordered)
		}
	}
}

// datagenCatalog builds a catalog from a generated dataset large
// enough (> 2 morsels of activities) that the parallel operators
// split real work instead of falling back to small-input paths.
func datagenCatalog(t testing.TB, seed int64) *DBCatalog {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	cfg.NumFamilies = 6
	cfg.ProteinsPerFamily = 30
	cfg.SeqLen = 40 // sequences only feed the length column here
	cfg.NumLigands = 50
	cfg.ActivityDensity = 0.5
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	prot, err := db.CreateTable("proteins", store.MustSchema(
		store.Column{Name: "accession", Kind: store.KindString},
		store.Column{Name: "family", Kind: store.KindString},
		store.Column{Name: "length", Kind: store.KindInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	act, err := db.CreateTable("activities", store.MustSchema(
		store.Column{Name: "protein_id", Kind: store.KindString},
		store.Column{Name: "ligand_id", Kind: store.KindString},
		store.Column{Name: "affinity", Kind: store.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	lig, err := db.CreateTable("ligands", store.MustSchema(
		store.Column{Name: "ligand_id", Kind: store.KindString},
		store.Column{Name: "weight", Kind: store.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Proteins {
		prot.Insert(store.Row{
			store.StringValue(p.ID),
			store.StringValue(p.Family),
			store.IntValue(int64(100 + len(p.Residues))),
		})
	}
	for _, a := range ds.Activities {
		act.Insert(store.Row{
			store.StringValue(a.ProteinID),
			store.StringValue(a.LigandID),
			store.FloatValue(a.Affinity),
		})
	}
	for _, l := range ds.Ligands {
		lig.Insert(store.Row{store.StringValue(l.ID), store.FloatValue(l.Weight)})
	}
	prot.CreateIndex("accession", store.IndexHash)
	prot.CreateIndex("family", store.IndexHash)
	prot.CreateIndex("length", store.IndexBTree)
	act.CreateIndex("protein_id", store.IndexHash)
	act.CreateIndex("affinity", store.IndexBTree)
	lig.CreateIndex("ligand_id", store.IndexHash)

	tree := ds.TrueTree
	if err := tree.Index(); err != nil {
		t.Fatal(err)
	}
	nodes, err := db.CreateTable("tree_nodes", store.MustSchema(
		store.Column{Name: "pre", Kind: store.KindInt},
		store.Column{Name: "name", Kind: store.KindString},
		store.Column{Name: "is_leaf", Kind: store.KindBool},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tree.Len(); i++ {
		id := phylo.NodeID(i)
		nodes.Insert(store.Row{
			store.IntValue(int64(tree.Pre(id))),
			store.StringValue(tree.Node(id).Name),
			store.BoolValue(tree.Node(id).IsLeaf()),
		})
	}
	nodes.CreateIndex("pre", store.IndexBTree)
	return NewDBCatalog(db, tree)
}

// datagenLiterals is the string literal pool matched to the datagen
// catalog's ID universe so generated predicates are selective rather
// than uniformly empty.
func datagenLiterals() []string {
	lits := []string{"'zzz'"}
	for f := 0; f < 3; f++ {
		lits = append(lits, fmt.Sprintf("'FAM%02d'", f))
	}
	for p := 0; p < 4; p++ {
		lits = append(lits, fmt.Sprintf("'DT%05d'", p*17))
	}
	for l := 0; l < 3; l++ {
		lits = append(lits, fmt.Sprintf("'LIG%04d'", l*7))
	}
	return lits
}

// datagenNodes is the pool of named datagen tree nodes (its leaves;
// internal nodes are unnamed) for generated WITHIN_SUBTREE predicates.
func datagenNodes() []string {
	var nodes []string
	for p := 0; p < 4; p++ {
		nodes = append(nodes, fmt.Sprintf("DT%05d", p*17))
	}
	return nodes
}

// TestDifferentialDatagen runs generated queries over the
// datagen-backed catalog, where table sizes force multi-morsel scans,
// chunked hash-join builds, and partial aggregation merges.
func TestDifferentialDatagen(t *testing.T) {
	if testing.Short() {
		t.Skip("datagen differential corpus is slow")
	}
	cat := datagenCatalog(t, 7)
	// Sanity: the activities table must span multiple morsels or this
	// test silently stops covering the chunked paths.
	tab, err := cat.Table("activities")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() < 2*morselSize {
		t.Fatalf("activities has %d rows; need >= %d for multi-morsel coverage", tab.Len(), 2*morselSize)
	}
	g := &queryGen{rng: rand.New(rand.NewSource(11)), strLits: datagenLiterals(), nodes: datagenNodes()}
	for i := 0; i < 60; i++ {
		q, ordered := g.generate()
		runDifferential(t, cat, q, ordered)
	}
	// Aggregation over the big table exercises the partial-merge path.
	aggCorpus := []string{
		"SELECT protein_id, COUNT(*), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities GROUP BY protein_id",
		"SELECT ligand_id, COUNT(DISTINCT protein_id) FROM activities GROUP BY ligand_id",
		"SELECT COUNT(*), COUNT(DISTINCT ligand_id) FROM activities",
		`SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p
		 JOIN activities a ON p.accession = a.protein_id GROUP BY p.family`,
		// A scalar subquery makes the argument non-vecSafe, so the
		// vectorized engine falls back to the row aggregate over a
		// multi-batch input: vec-parallel must still match the
		// reference once that operator runs serially.
		"SELECT protein_id, SUM(affinity * (SELECT MAX(affinity) FROM activities)) FROM activities GROUP BY protein_id",
	}
	for _, q := range aggCorpus {
		runDifferential(t, cat, q, false)
	}
}

// TestParallelismDefaults pins the Options knob semantics the
// experiments rely on: 0 means GOMAXPROCS, explicit values win.
func TestParallelismDefaults(t *testing.T) {
	var o Options
	if got := o.EffectiveParallelism(); got < 1 {
		t.Fatalf("EffectiveParallelism() = %d, want >= 1", got)
	}
	o.Parallelism = 3
	if got := o.EffectiveParallelism(); got != 3 {
		t.Fatalf("EffectiveParallelism() = %d, want 3", got)
	}
}
