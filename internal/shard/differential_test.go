package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"drugtree/internal/query"
)

// TestShardedDifferentialCorpus drives the fixed corpus through the
// four-way matrix: sharded vs single-node × row vs vectorized. Every
// operator class crosses the coordinator here — replicated-only
// routing, co-partitioned joins, partial re-aggregation, top-k
// merge, shard pruning, and the gather fallback (subqueries and
// DISTINCT aggregates).
func TestShardedDifferentialCorpus(t *testing.T) {
	f := newFourWay(t, fixtureConfig(7), 3, nil)
	clade := cladeName(f.tree)
	corpus := []struct {
		q      string
		keyPos int // sort-key column for ordered queries, -1 otherwise
	}{
		{"SELECT * FROM proteins", -1},
		{"SELECT accession FROM proteins WHERE family = 'FAM01'", -1},
		{"SELECT accession, length FROM proteins WHERE length > 120 AND family != 'FAM00'", -1},
		{"SELECT accession FROM proteins WHERE family = 'FAM02' OR length BETWEEN 110 AND 125", -1},
		{"SELECT p.accession, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id", -1},
		{`SELECT p.accession, l.weight FROM proteins p
		  JOIN activities a ON p.accession = a.protein_id
		  JOIN ligands l ON a.ligand_id = l.ligand_id WHERE a.affinity > 7`, -1},
		{"SELECT t.name, a.affinity FROM tree_nodes t JOIN activities a ON t.name = a.protein_id WHERE a.affinity > 8", -1},
		{"SELECT COUNT(*) FROM activities", -1},
		{"SELECT COUNT(*), SUM(affinity), AVG(affinity), MIN(affinity), MAX(affinity) FROM activities", -1},
		{"SELECT COUNT(*), SUM(length), MIN(accession) FROM proteins WHERE family = 'NOSUCH'", -1},
		{"SELECT family, COUNT(*), AVG(length) FROM proteins GROUP BY family", -1},
		{"SELECT family, COUNT(*) AS n FROM proteins GROUP BY family HAVING n > 15", -1},
		{`SELECT p.family, COUNT(*) AS n, AVG(a.affinity) FROM proteins p
		  JOIN activities a ON p.accession = a.protein_id GROUP BY p.family`, -1},
		{"SELECT protein_id, AVG(affinity) AS m FROM activities GROUP BY protein_id ORDER BY m DESC LIMIT 5", 1},
		{"SELECT protein_id, COUNT(DISTINCT ligand_id) FROM activities GROUP BY protein_id", -1},
		{"SELECT COUNT(DISTINCT family) FROM proteins", -1},
		{"SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 7", 1},
		{"SELECT accession FROM proteins ORDER BY accession", 0},
		{"SELECT protein_id, affinity FROM activities ORDER BY affinity LIMIT 11", 1},
		{fmt.Sprintf("SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(pre, '%s') AND is_leaf = TRUE", clade), -1},
		{"SELECT name FROM tree_nodes WHERE ANCESTOR_OF(pre, 'DT00010')", -1},
		{fmt.Sprintf("SELECT protein_id, affinity FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') AND affinity > 6", clade), -1},
		{"SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, 'DT00010')", -1},
		{"SELECT accession FROM proteins WHERE accession IN (SELECT protein_id FROM activities WHERE affinity > 8)", -1},
		{"SELECT accession FROM proteins WHERE length > (SELECT AVG(length) FROM proteins)", -1},
		{`SELECT a.protein_id, l.ligand_id FROM activities a
		  JOIN ligands l ON a.affinity < l.weight WHERE l.weight < 110`, -1},
		{"SELECT ligand_id, weight FROM ligands WHERE weight > 100", -1},
		{"SELECT pre, name FROM tree_nodes WHERE pre >= 10 AND pre <= 40", -1},
		{"SELECT COUNT(*) FROM tree_nodes WHERE pre < 25", -1},
	}
	for _, c := range corpus {
		runFourWay(t, f, c.q, c.keyPos)
	}
}

// shardGen generates random well-formed DTQL over the fixture schema,
// mirroring the engine-level fuzz generator: joins along the real
// key relationships, nested predicates, IN-subqueries, BETWEEN,
// LIKE, and ordered top-k tails.
type shardGen struct {
	rng *rand.Rand
}

var shardFuzzTables = map[string][]struct {
	name string
	kind string
}{
	"proteins":   {{"accession", "string"}, {"family", "string"}, {"length", "int"}},
	"activities": {{"protein_id", "string"}, {"ligand_id", "string"}, {"affinity", "float"}},
	"ligands":    {{"ligand_id", "string"}, {"weight", "float"}},
	"tree_nodes": {{"pre", "int"}, {"name", "string"}, {"is_leaf", "bool"}},
}

func (g *shardGen) literal(kind string) string {
	switch kind {
	case "int":
		return fmt.Sprint(g.rng.Intn(200))
	case "float":
		return fmt.Sprintf("%.1f", g.rng.Float64()*10)
	case "string":
		opts := []string{"'zzz'", "'FAM00'", "'FAM01'", "'FAM02'", "'DT00000'", "'DT00017'", "'DT00034'", "'LIG0000'", "'LIG0007'", "'LIG0014'"}
		return opts[g.rng.Intn(len(opts))]
	case "bool":
		if g.rng.Intn(2) == 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "0"
}

func (g *shardGen) predicate(alias, table string, depth int) string {
	cols := shardFuzzTables[table]
	c := cols[g.rng.Intn(len(cols))]
	ref := alias + "." + c.name
	if depth > 0 && g.rng.Float64() < 0.4 {
		op := "AND"
		if g.rng.Intn(2) == 0 {
			op = "OR"
		}
		s := fmt.Sprintf("(%s %s %s)", g.predicate(alias, table, depth-1), op, g.predicate(alias, table, depth-1))
		if g.rng.Float64() < 0.2 {
			s = "NOT " + s
		}
		return s
	}
	switch c.kind {
	case "bool":
		return fmt.Sprintf("%s = %s", ref, g.literal("bool"))
	case "string":
		switch g.rng.Intn(5) {
		case 0:
			return fmt.Sprintf("%s = %s", ref, g.literal("string"))
		case 1:
			return fmt.Sprintf("%s != %s", ref, g.literal("string"))
		case 2:
			return fmt.Sprintf("%s LIKE 'DT0%%'", ref)
		case 3:
			subs := []string{
				"SELECT protein_id FROM activities WHERE affinity > 5",
				"SELECT accession FROM proteins WHERE length < 135",
				"SELECT ligand_id FROM ligands WHERE weight > 120",
			}
			return fmt.Sprintf("%s IN (%s)", ref, subs[g.rng.Intn(len(subs))])
		default:
			return fmt.Sprintf("%s IN (%s, %s)", ref, g.literal("string"), g.literal("string"))
		}
	default:
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		if g.rng.Float64() < 0.25 {
			return fmt.Sprintf("%s BETWEEN %s AND %s", ref, g.literal(c.kind), g.literal(c.kind))
		}
		return fmt.Sprintf("%s %s %s", ref, ops[g.rng.Intn(len(ops))], g.literal(c.kind))
	}
}

// generate emits one random query and the sort-key position (-1 when
// unordered).
func (g *shardGen) generate() (string, int) {
	type rel struct{ table, alias string }
	shapes := [][]rel{
		{{"proteins", "p"}},
		{{"activities", "a"}},
		{{"tree_nodes", "t"}},
		{{"ligands", "l"}},
		{{"proteins", "p"}, {"activities", "a"}},
		{{"proteins", "p"}, {"activities", "a"}, {"ligands", "l"}},
		{{"tree_nodes", "t"}, {"activities", "a"}},
	}
	joinConds := map[string]string{
		"p/a": "p.accession = a.protein_id",
		"a/l": "a.ligand_id = l.ligand_id",
		"t/a": "t.name = a.protein_id",
	}
	shape := shapes[g.rng.Intn(len(shapes))]
	var b strings.Builder
	b.WriteString("SELECT ")
	var selCols []string
	for _, r := range shape {
		cols := shardFuzzTables[r.table]
		c := cols[g.rng.Intn(len(cols))]
		selCols = append(selCols, r.alias+"."+c.name)
	}
	b.WriteString(strings.Join(selCols, ", "))
	b.WriteString(" FROM " + shape[0].table + " " + shape[0].alias)
	for i := 1; i < len(shape); i++ {
		cond, ok := joinConds[shape[i-1].alias+"/"+shape[i].alias]
		if !ok {
			cond = joinConds[shape[i].alias+"/"+shape[i-1].alias]
		}
		fmt.Fprintf(&b, " JOIN %s %s ON %s", shape[i].table, shape[i].alias, cond)
	}
	if g.rng.Float64() < 0.8 {
		var preds []string
		for _, r := range shape {
			if g.rng.Float64() < 0.7 {
				preds = append(preds, g.predicate(r.alias, r.table, 1))
			}
		}
		if len(preds) > 0 {
			b.WriteString(" WHERE " + strings.Join(preds, " AND "))
		}
	}
	keyPos := -1
	if g.rng.Float64() < 0.3 {
		fmt.Fprintf(&b, " ORDER BY %s", selCols[0])
		if g.rng.Intn(2) == 0 {
			b.WriteString(" DESC")
		}
		fmt.Fprintf(&b, " LIMIT %d", 1+g.rng.Intn(20))
		keyPos = 0
	}
	return b.String(), keyPos
}

// TestShardedDifferentialFuzz pushes generated queries through the
// four-way matrix across seeds.
func TestShardedDifferentialFuzz(t *testing.T) {
	f := newFourWay(t, fixtureConfig(7), 3, nil)
	for _, seed := range []int64{1, 42} {
		g := &shardGen{rng: rand.New(rand.NewSource(seed))}
		trials := 80
		if testing.Short() {
			trials = 20
		}
		for i := 0; i < trials; i++ {
			q, keyPos := g.generate()
			runFourWay(t, f, q, keyPos)
		}
	}
}

// TestShardedUnorderedLimit pins the any-N-rows contract of LIMIT
// without ORDER BY: which N qualifying rows are kept is unspecified
// (single-node keeps the first N in table order, the coordinator the
// first N in shard-concatenation order), so the differential check is
// a subset check — every engine must return exactly min(N, total)
// rows, each drawn from the unlimited result's multiset — rather than
// row identity, which would only hold by corpus luck.
func TestShardedUnorderedLimit(t *testing.T) {
	f := newFourWay(t, fixtureConfig(7), 3, nil)
	ctx := context.Background()
	corpus := []struct {
		q, unlimited string
		limit        int
	}{
		{"SELECT accession, family FROM proteins LIMIT 9",
			"SELECT accession, family FROM proteins", 9},
		{"SELECT accession FROM proteins WHERE length > 120 LIMIT 5",
			"SELECT accession FROM proteins WHERE length > 120", 5},
		{"SELECT p.accession, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id LIMIT 13",
			"SELECT p.accession, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id", 13},
		{"SELECT ligand_id FROM ligands LIMIT 3",
			"SELECT ligand_id FROM ligands", 3},
		{"SELECT accession FROM proteins WHERE family = 'NOSUCH' LIMIT 4",
			"SELECT accession FROM proteins WHERE family = 'NOSUCH'", 4},
		{"SELECT accession FROM proteins LIMIT 100000",
			"SELECT accession FROM proteins", 100000},
	}
	for _, c := range corpus {
		full, err := f.singleRow.Query(ctx, c.unlimited)
		if err != nil {
			t.Fatalf("query %q: unlimited baseline: %v", c.unlimited, err)
		}
		pool := map[string]int{}
		for _, r := range full.Rows {
			pool[canonKey(r)]++
		}
		want := c.limit
		if len(full.Rows) < want {
			want = len(full.Rows)
		}
		run := func(label string, res *query.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("query %q [%s]: %v", c.q, label, err)
			}
			if len(res.Rows) != want {
				t.Fatalf("query %q [%s]: returned %d rows, want %d", c.q, label, len(res.Rows), want)
			}
			left := make(map[string]int, len(pool))
			for k, v := range pool {
				left[k] = v
			}
			for _, r := range res.Rows {
				k := canonKey(r)
				left[k]--
				if left[k] < 0 {
					t.Fatalf("query %q [%s]: row %v not in (or over-represented vs) the unlimited result", c.q, label, r)
				}
			}
		}
		res, err := f.singleRow.Query(ctx, c.q)
		run("single-row", res, err)
		res, err = f.singleVec.Query(ctx, c.q)
		run("single-vec", res, err)
		res, err = f.shardRow.Query(ctx, c.q)
		run("shard-row", res, err)
		res, err = f.shardVec.Query(ctx, c.q)
		run("shard-vec", res, err)
	}
}

// TestShardedCancelParity pins cancellation behavior: a cancelled
// context produces ctx.Err() from the coordinator exactly as it does
// from the single-node engine, never a partial result.
func TestShardedCancelParity(t *testing.T) {
	f := newFourWay(t, fixtureConfig(7), 3, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	corpus := []string{
		"SELECT * FROM proteins",
		"SELECT family, COUNT(*) FROM proteins GROUP BY family",
		"SELECT accession FROM proteins WHERE accession IN (SELECT protein_id FROM activities WHERE affinity > 8)",
		"SELECT accession, length FROM proteins ORDER BY length DESC LIMIT 7",
	}
	for _, q := range corpus {
		if _, err := f.singleRow.Query(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("query %q: single-node error = %v, want context.Canceled", q, err)
		}
		for name, c := range map[string]*Coordinator{"row": f.shardRow, "vec": f.shardVec} {
			if _, err := c.Query(ctx, q); !errors.Is(err, context.Canceled) {
				t.Fatalf("query %q [%s]: sharded error = %v, want context.Canceled", q, name, err)
			}
		}
	}
}
