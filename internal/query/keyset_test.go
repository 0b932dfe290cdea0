package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// keySetCatalog extends the test catalog with the rows the key-set
// path must get right besides plain leaf keys: NULL keys, a row keyed
// by an internal node's name, and (already in the base catalog)
// protein_id values naming no tree node. tree_nodes.name gets a hash
// index, so WITHIN_SUBTREE over it reaches the cost rule with a key
// domain the tree covers exactly.
func keySetCatalog(t *testing.T) *DBCatalog {
	t.Helper()
	cat := testCatalog(t)
	act, err := cat.Table("activities")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []store.Row{
		{store.NullValue(), store.StringValue("L01"), store.FloatValue(6)},
		{store.NullValue(), store.StringValue("L02"), store.FloatValue(7)},
		{store.StringValue("FAM0"), store.StringValue("L03"), store.FloatValue(8)},
		{store.StringValue("root"), store.StringValue("L04"), store.FloatValue(9)},
	} {
		if _, err := act.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	nodes, err := cat.Table("tree_nodes")
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes.CreateIndex("name", store.IndexHash); err != nil {
		t.Fatal(err)
	}
	return cat
}

// keySetShapes are the WITHIN_SUBTREE-over-a-name-column statements
// checked for every node: bare, with residual conjuncts, aggregated,
// and joined.
func keySetShapes(node string) []string {
	return []string{
		fmt.Sprintf("SELECT protein_id, ligand_id, affinity FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", node),
		fmt.Sprintf("SELECT protein_id, affinity FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') AND affinity > 6", node),
		fmt.Sprintf("SELECT ligand_id FROM activities WHERE affinity <= 7 AND WITHIN_SUBTREE(protein_id, '%s') AND ligand_id != 'L03'", node),
		fmt.Sprintf("SELECT COUNT(*), AVG(affinity), MAX(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", node),
		fmt.Sprintf("SELECT protein_id, COUNT(*) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s') GROUP BY protein_id", node),
		fmt.Sprintf(`SELECT p.family, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id
			WHERE WITHIN_SUBTREE(a.protein_id, '%s')`, node),
		fmt.Sprintf("SELECT pre, name FROM tree_nodes WHERE WITHIN_SUBTREE(name, '%s')", node),
	}
}

// TestKeySetDifferential runs every shape for every node of the test
// tree — leaves, internal nodes and the root — and requires the
// index-probe answers to equal the naive engine's full-scan answers,
// and the row and vectorized engines to agree on plan and rows.
func TestKeySetDifferential(t *testing.T) {
	cat := keySetCatalog(t)
	naive := NewEngine(cat, NaiveOptions())
	tree := cat.Tree()
	probed := 0
	for i := 0; i < tree.Len(); i++ {
		node := tree.Node(phylo.NodeID(i)).Name
		for _, q := range keySetShapes(node) {
			want, err := naive.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("query %q: naive: %v", q, err)
			}
			got := runQ(t, cat, DefaultOptions(), q)
			if !sameRowMultisetCanon(want.Rows, got.Rows) {
				t.Fatalf("query %q: key-set answer differs from naive (%d vs %d rows)\nplan:\n%s",
					q, len(want.Rows), len(got.Rows), got.Plan)
			}
			if strings.Contains(got.Plan, "IndexKeySetScan") {
				probed++
			}
			runDifferential(t, cat, q, false)
		}
	}
	if probed == 0 {
		t.Fatal("no statement took the key-set path")
	}
}

// TestKeySetCostRule pins the access-path choice: a leaf probes the
// index (one key), the root of a tree whose names are the column's
// whole key domain scans (keys/NDV = 1 > keySetMaxShare), the
// residual carries the remaining conjuncts, and NaiveOptions never
// probes.
func TestKeySetCostRule(t *testing.T) {
	cat := keySetCatalog(t)
	cases := []struct {
		q, want string
	}{
		{"SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(name, 'P004')",
			"IndexKeySetScan tree_nodes (WITHIN_SUBTREE(name, 'P004'): 1 keys)"},
		{"SELECT name FROM tree_nodes WHERE WITHIN_SUBTREE(name, 'root')",
			"SeqScan tree_nodes filter: WITHIN_SUBTREE(name, 'root')"},
		{"SELECT affinity FROM activities WHERE WITHIN_SUBTREE(protein_id, 'FAM1') AND affinity > 5",
			"IndexKeySetScan activities (WITHIN_SUBTREE(protein_id, 'FAM1'): 3 keys) filter: (affinity > 5)"},
		// Equality on an indexed column still wins.
		{"SELECT affinity FROM activities WHERE WITHIN_SUBTREE(protein_id, 'FAM1') AND protein_id = 'P001'",
			`IndexScan activities (protein_id = "P001") filter: WITHIN_SUBTREE(protein_id, 'FAM1')`},
	}
	for _, c := range cases {
		for _, opts := range []Options{serialOptions(), rowOptions(serialOptions())} {
			res := runQ(t, cat, opts, "EXPLAIN "+c.q)
			if !strings.Contains(res.Plan, c.want) {
				t.Fatalf("EXPLAIN %q (vectorized=%v) lacks %q:\n%s", c.q, opts.Vectorized, c.want, res.Plan)
			}
		}
		if res := runQ(t, cat, NaiveOptions(), "EXPLAIN "+c.q); strings.Contains(res.Plan, "IndexKeySetScan") {
			t.Fatalf("NaiveOptions probed the index for %q:\n%s", c.q, res.Plan)
		}
	}
}

// TestKeySetSnapshotAndOrder checks the probe path against MVCC and
// output order: a statement pinned before inserts, deletes and key
// updates keeps seeing exactly the pinned image; at the latest version
// deleted and superseded versions never surface; and rows come out in
// ascending row-id order on both engines, so an unordered LIMIT keeps
// returning the same rows.
func TestKeySetSnapshotAndOrder(t *testing.T) {
	cat := keySetCatalog(t)
	act, err := cat.Table("activities")
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT protein_id, ligand_id, affinity FROM activities WHERE WITHIN_SUBTREE(protein_id, 'FAM0')"
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*Engine{NewEngine(cat, serialOptions()), NewEngine(cat, rowOptions(serialOptions()))}
	run := func(e *Engine, snap *store.SnapshotHandle) *Result {
		t.Helper()
		res, err := e.RunAt(context.Background(), stmt, snap)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan, "IndexKeySetScan") {
			t.Fatalf("plan does not probe the index:\n%s", res.Plan)
		}
		return res
	}
	// inSubtree lists the visible FAM0-subtree rows in row-id order —
	// the order the probe path must emit.
	member := map[string]bool{"FAM0": true, "P000": true, "P004": true}
	inSubtree := func() []store.Row {
		type idRow struct {
			id int64
			r  store.Row
		}
		var got []idRow
		act.Scan(func(id int64, r store.Row) bool {
			if r[0].K == store.KindString && member[r[0].S] {
				got = append(got, idRow{id, r.Clone()})
			}
			return true
		})
		sort.Slice(got, func(i, j int) bool { return got[i].id < got[j].id })
		out := make([]store.Row, len(got))
		for i, g := range got {
			out[i] = g.r
		}
		return out
	}
	sameSeq := func(label string, want, got []store.Row) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
		}
		for i := range want {
			if canonKey(want[i]) != canonKey(got[i]) {
				t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
			}
		}
	}

	before := inSubtree()
	for _, e := range engines {
		sameSeq("latest before writes", before, run(e, nil).Rows)
	}
	snap := cat.PinSnapshot()
	defer snap.Release()

	// Mutate the subtree after the pin: insert a P004 row, delete one
	// P000 row, and move one P004 row out of the subtree (P001).
	if _, err := act.Insert(store.Row{store.StringValue("P004"), store.StringValue("L09"), store.FloatValue(5.5)}); err != nil {
		t.Fatal(err)
	}
	p000, err := act.LookupEqual("protein_id", store.StringValue("P000"))
	if err != nil || len(p000) == 0 {
		t.Fatalf("P000 lookup: %v (%d ids)", err, len(p000))
	}
	if !act.Delete(p000[0]) {
		t.Fatal("delete failed")
	}
	p004, err := act.LookupEqual("protein_id", store.StringValue("P004"))
	if err != nil || len(p004) == 0 {
		t.Fatalf("P004 lookup: %v (%d ids)", err, len(p004))
	}
	moved, _ := act.Get(p004[0])
	moved = moved.Clone()
	moved[0] = store.StringValue("P001")
	if err := act.Update(p004[0], moved); err != nil {
		t.Fatal(err)
	}
	after := inSubtree()
	if len(after) != len(before)-1 {
		t.Fatalf("fixture: subtree has %d rows after writes, want %d", len(after), len(before)-1)
	}

	for _, e := range engines {
		sameSeq("pinned snapshot", before, run(e, snap).Rows)
		sameSeq("latest after writes", after, run(e, nil).Rows)
	}

	// An unordered LIMIT returns the first rows in row-id order, the
	// same ones on every run and on both engines.
	limited, err := Parse(q + " LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		for _, e := range engines {
			res, err := e.RunAt(context.Background(), limited, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameSeq("unordered LIMIT", after[:4], res.Rows)
		}
	}
}
