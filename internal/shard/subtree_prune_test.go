package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"drugtree/internal/phylo"
	"drugtree/internal/store"
)

// subtreeShapes are the WITHIN_SUBTREE-over-protein_id statements the
// pruning tests run for a node: a scatter and a partial aggregate.
func subtreeShapes(node string) []string {
	return []string{
		fmt.Sprintf("SELECT protein_id, ligand_id, affinity FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", node),
		fmt.Sprintf("SELECT COUNT(*), AVG(affinity), MAX(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '%s')", node),
	}
}

// addEdgeActivities inserts activity rows the name routing must keep
// exact: NULL keys, keys naming no tree node (hash-fallback routed)
// and a key naming an internal node.
func addEdgeActivities(t *testing.T, db *store.DB, internal string) {
	t.Helper()
	act, err := db.Table("activities")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []store.Row{
		{store.NullValue(), store.StringValue("LIG0001"), store.FloatValue(6.5)},
		{store.StringValue("ORPHAN1"), store.StringValue("LIG0002"), store.FloatValue(7.5)},
		{store.StringValue("ORPHAN2"), store.StringValue("LIG0003"), store.FloatValue(5.5)},
		{store.StringValue(internal), store.StringValue("LIG0004"), store.FloatValue(8.5)},
	} {
		if _, err := act.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubtreeNamePruning runs both shapes for every node of the tree
// through the four-way matrix on 3 shards, and pins the gather header:
// a leaf runs on exactly its owning shard through the index key-set
// probe, the root on every shard.
func TestSubtreeNamePruning(t *testing.T) {
	cfg := fixtureConfig(7)
	db, tree := buildFixture(t, cfg)
	addEdgeActivities(t, db, cladeName(tree))
	f := &fourWay{
		db:        db,
		tree:      tree,
		singleRow: newSingle(db, tree, rowOptions()),
		singleVec: newSingle(db, tree, vecOptions()),
		shardRow:  newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: rowOptions()}),
		shardVec:  newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: vecOptions()}),
	}
	for i := 0; i < tree.Len(); i++ {
		for _, q := range subtreeShapes(tree.Node(phylo.NodeID(i)).Name) {
			runFourWay(t, f, q, -1)
		}
	}

	ctx := context.Background()
	leaf := tree.Node(tree.Leaves()[0]).Name
	res, err := f.shardVec.Query(ctx, "EXPLAIN ANALYZE "+subtreeShapes(leaf)[1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Gather [shards=1 pruned=2 mode=partial-agg]") ||
		!strings.Contains(res.Plan, "IndexKeySetScan activities") {
		t.Fatalf("leaf subtree not pruned to one shard's key-set probe:\n%s", res.Plan)
	}
	root := tree.Node(tree.Root()).Name
	res, err = f.shardVec.Query(ctx, "EXPLAIN "+subtreeShapes(root)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "Gather [shards=3 pruned=0 mode=scatter]") {
		t.Fatalf("root subtree header wrong:\n%s", res.Plan)
	}
}

// TestSubtreePrunedFailedShard fails a shard the leaf's subtree does
// not route to: the pruned query must still answer (the failed shard
// is not needed), while the root's query must refuse with
// ErrShardUnavailable.
func TestSubtreePrunedFailedShard(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(7))
	single := newSingle(db, tree, vecOptions())
	c := newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: vecOptions()})
	ctx := context.Background()

	leaf := tree.Node(tree.Leaves()[0]).Name
	owner := c.specs["activities"].keys[0].part.Route(strVal(leaf))
	c.FailShard((owner + 1) % 3)
	for _, q := range subtreeShapes(leaf) {
		want, err := single.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("pruned query with an unneeded failed shard: %v", err)
		}
		assertSameRows(t, "pruned-past-failure", q, -1, want, got)
	}
	root := tree.Node(tree.Root()).Name
	if _, err := c.Query(ctx, subtreeShapes(root)[0]); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("root subtree with a failed shard: err = %v, want ErrShardUnavailable", err)
	}
}

// TestSubtreePruningDuplicateNames renames tree nodes so names repeat:
// the tree's name column stops being a partition key, the directory
// maps each repeated name to its first node's shard, and keys outside
// the directory route by hash. Every node's subtree must still answer
// exactly as on a single node.
func TestSubtreePruningDuplicateNames(t *testing.T) {
	db, tree := buildFixture(t, fixtureConfig(11))
	leaves := tree.Leaves()
	var internal []phylo.NodeID
	for i := 0; i < tree.Len(); i++ {
		id := phylo.NodeID(i)
		if !tree.Node(id).IsLeaf() && id != tree.Root() {
			internal = append(internal, id)
		}
	}
	// Two internal nodes share a name, and one internal node takes the
	// name of a leaf far away in the tree.
	tree.Node(internal[1]).Name = tree.Node(internal[0]).Name
	tree.Node(internal[len(internal)-1]).Name = tree.Node(leaves[0]).Name
	addEdgeActivities(t, db, tree.Node(internal[0]).Name)

	c := newCoordinator(t, db, tree, Options{Shards: 3, QueryOptions: vecOptions()})
	if len(c.specs["tree_nodes"].keys) != 1 {
		t.Fatal("fixture: duplicate names must void the tree_nodes name key")
	}
	single := newSingle(db, tree, rowOptions())
	ctx := context.Background()
	for i := 0; i < tree.Len(); i++ {
		for _, q := range subtreeShapes(tree.Node(phylo.NodeID(i)).Name) {
			want, err := single.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, "duplicate-names", q, -1, want, got)
		}
	}
}
