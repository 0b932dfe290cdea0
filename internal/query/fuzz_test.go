package query

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// queryGen generates random well-formed DTQL over the test catalog
// schema. It is the workhorse of TestFuzzNaiveOptimizedEquivalence:
// any query it emits must produce identical result multisets under
// the naive and fully optimized engines.
type queryGen struct {
	rng *rand.Rand
	// strLits overrides the string literal pool (the differential
	// harness points it at the datagen catalog's ID universe).
	strLits []string
	// nodes overrides the tree node names WITHIN_SUBTREE predicates
	// over string columns draw from.
	nodes []string
}

// column universe of the test catalog, per table.
var fuzzTables = map[string][]struct {
	name string
	kind string // "int", "float", "string", "bool"
}{
	"proteins": {
		{"accession", "string"}, {"family", "string"}, {"length", "int"},
	},
	"activities": {
		{"protein_id", "string"}, {"ligand_id", "string"}, {"affinity", "float"},
	},
	"ligands": {
		{"ligand_id", "string"}, {"weight", "float"},
	},
	"tree_nodes": {
		{"pre", "int"}, {"name", "string"}, {"is_leaf", "bool"},
	},
}

func (g *queryGen) literal(kind string) string {
	switch kind {
	case "int":
		return fmt.Sprint(g.rng.Intn(200))
	case "float":
		return fmt.Sprintf("%.1f", g.rng.Float64()*10)
	case "string":
		opts := []string{"'FAM0'", "'FAM1'", "'FAM2'", "'P001'", "'P010'", "'L03'", "'zzz'"}
		if g.strLits != nil {
			opts = g.strLits
		}
		return opts[g.rng.Intn(len(opts))]
	case "bool":
		if g.rng.Intn(2) == 0 {
			return "TRUE"
		}
		return "FALSE"
	}
	return "0"
}

func (g *queryGen) predicate(alias, table string, depth int) string {
	cols := fuzzTables[table]
	c := cols[g.rng.Intn(len(cols))]
	ref := alias + "." + c.name
	if depth > 0 && g.rng.Float64() < 0.4 {
		op := "AND"
		if g.rng.Intn(2) == 0 {
			op = "OR"
		}
		l := g.predicate(alias, table, depth-1)
		r := g.predicate(alias, table, depth-1)
		s := fmt.Sprintf("(%s %s %s)", l, op, r)
		if g.rng.Float64() < 0.2 {
			s = "NOT " + s
		}
		return s
	}
	switch c.kind {
	case "bool":
		return fmt.Sprintf("%s = %s", ref, g.literal("bool"))
	case "string":
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%s = %s", ref, g.literal("string"))
		case 1:
			return fmt.Sprintf("%s != %s", ref, g.literal("string"))
		case 2:
			return fmt.Sprintf("%s LIKE 'P0%%'", ref)
		case 3:
			// Uncorrelated IN-subquery over a compatible ID domain.
			subs := []string{
				"SELECT protein_id FROM activities WHERE affinity > 5",
				"SELECT accession FROM proteins WHERE length < 140",
				"SELECT ligand_id FROM ligands WHERE weight > 120",
			}
			return fmt.Sprintf("%s IN (%s)", ref, subs[g.rng.Intn(len(subs))])
		case 4:
			// Subtree membership over a column of node names: the
			// key-set index probe when the column is indexed.
			nodes := []string{"root", "FAM0", "FAM1", "P000", "P005"}
			if g.nodes != nil {
				nodes = g.nodes
			}
			return fmt.Sprintf("WITHIN_SUBTREE(%s, '%s')", ref, nodes[g.rng.Intn(len(nodes))])
		default:
			return fmt.Sprintf("%s IN (%s, %s)", ref, g.literal("string"), g.literal("string"))
		}
	default:
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		op := ops[g.rng.Intn(len(ops))]
		if g.rng.Float64() < 0.25 {
			lo := g.literal(c.kind)
			hi := g.literal(c.kind)
			return fmt.Sprintf("%s BETWEEN %s AND %s", ref, lo, hi)
		}
		return fmt.Sprintf("%s %s %s", ref, op, g.literal(c.kind))
	}
}

// generate emits one random query (and whether it is order-sensitive).
func (g *queryGen) generate() (string, bool) {
	type rel struct{ table, alias string }
	shapes := [][]rel{
		{{"proteins", "p"}},
		{{"activities", "a"}},
		{{"tree_nodes", "t"}},
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
	// Select one or two concrete columns from the participating
	// relations (no * to keep column sets stable across join orders).
	var selCols []string
	for _, r := range shape {
		cols := fuzzTables[r.table]
		c := cols[g.rng.Intn(len(cols))]
		selCols = append(selCols, r.alias+"."+c.name)
	}
	b.WriteString(strings.Join(selCols, ", "))
	b.WriteString(" FROM " + shape[0].table + " " + shape[0].alias)
	for i := 1; i < len(shape); i++ {
		key := shape[i-1].alias + "/" + shape[i].alias
		cond, ok := joinConds[key]
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
	ordered := false
	if g.rng.Float64() < 0.3 {
		// Order by the first selected column with LIMIT; ties make
		// exact row-order comparison unsound, so the caller treats
		// ordered queries as multisets too and only checks the sort
		// key column sequence.
		fmt.Fprintf(&b, " ORDER BY %s", selCols[0])
		if g.rng.Intn(2) == 0 {
			b.WriteString(" DESC")
		}
		fmt.Fprintf(&b, " LIMIT %d", 1+g.rng.Intn(20))
		ordered = true
	}
	return b.String(), ordered
}

func TestFuzzNaiveOptimizedEquivalence(t *testing.T) {
	cat := testCatalog(t)
	naive := NewEngine(cat, NaiveOptions())
	opt := NewEngine(cat, DefaultOptions())
	g := &queryGen{rng: rand.New(rand.NewSource(2024))}
	const trials = 300
	for i := 0; i < trials; i++ {
		q, ordered := g.generate()
		rn, err := naive.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d (%s): naive: %v", i, q, err)
		}
		ro, err := opt.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d (%s): optimized: %v", i, q, err)
		}
		if ordered {
			// Compare result sizes and the sorted key column values
			// (ties may legitimately reorder whole rows).
			if len(rn.Rows) != len(ro.Rows) {
				t.Fatalf("query %d (%s): %d vs %d rows", i, q, len(rn.Rows), len(ro.Rows))
			}
			for j := range rn.Rows {
				a, b := rn.Rows[j][0], ro.Rows[j][0]
				if a.K != b.K || a.String() != b.String() {
					t.Fatalf("query %d (%s): sort key %d differs: %v vs %v", i, q, j, a, b)
				}
			}
			continue
		}
		if !sameRowMultiset(rn.Rows, ro.Rows) {
			t.Fatalf("query %d (%s): result multisets differ (naive %d rows, optimized %d)",
				i, q, len(rn.Rows), len(ro.Rows))
		}
	}
}

func TestFuzzGeneratedQueriesParse(t *testing.T) {
	g := &queryGen{rng: rand.New(rand.NewSource(7))}
	for i := 0; i < 200; i++ {
		q, _ := g.generate()
		if _, err := Parse(q); err != nil {
			t.Fatalf("generated query does not parse: %s: %v", q, err)
		}
	}
}
