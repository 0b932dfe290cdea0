package experiments

import (
	"context"
	"testing"

	"drugtree/internal/core"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
)

// BenchmarkT10Vectorized is the T10 ablation as a testing.B benchmark:
// each query class runs as a row-engine and a vectorized sub-benchmark
// over the shared standard dataset, so `go test -bench T10Vectorized`
// reports the same row-vs-batch ratios RunT10 tabulates. Engines are
// built once per benchmark invocation (dataset generation and tree
// reconstruction dominate a naive per-sub-benchmark setup).
func BenchmarkT10Vectorized(b *testing.B) {
	ctx := context.Background()
	engines := make(map[string]*core.Engine, 2)
	for name, vec := range map[string]bool{"row": false, "vec": true} {
		e, err := t10Engine(ctx, 1, t10Options(vec, 1))
		if err != nil {
			b.Fatal(err)
		}
		engines[name] = e
	}
	for _, cls := range t10Classes() {
		for _, name := range []string{"row", "vec"} {
			e := engines[name]
			b.Run(cls.name+"/"+name, func(b *testing.B) {
				if _, err := e.Query(ctx, cls.dtql); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Query(ctx, cls.dtql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkT11Sharded is the T11 topology comparison as a testing.B
// benchmark: each query class runs as a single-node and a 4-shard
// sub-benchmark over the same store and tree, so `go test -bench
// T11Sharded` reports the same scatter-vs-single ratios RunT11
// tabulates.
func BenchmarkT11Sharded(b *testing.B) {
	ctx := context.Background()
	single, sharded, err := t11Engines(ctx, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer sharded.Close()
	classes := t11Classes()
	for i := range classes {
		if classes[i].dtql == "" {
			// The subtree class needs a tree-dependent clade; the fixed
			// pre-range below exercises the same pruned-range path.
			classes[i].dtql = "SELECT pre, name FROM tree_nodes WHERE pre >= 3 AND pre <= 150"
		}
	}
	engines := map[string]*core.Engine{"single": single, "shard4": sharded}
	for _, cls := range classes {
		for _, name := range []string{"single", "shard4"} {
			e := engines[name]
			b.Run(cls.name+"/"+name, func(b *testing.B) {
				if _, err := e.Query(ctx, cls.dtql); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Query(ctx, cls.dtql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSubtreeKeySet measures WITHIN_SUBTREE over activities'
// protein_id — a column of node names — on the analyst-sized dataset
// (20 families × 25 proteins, 200 ligands, 29,803 activity rows) for
// a leaf, a clade of about 16 leaves and the root. Per node: "scan" is
// a single node with indexes off (the full-scan filter), "single" a
// single node with the overlay off (the key-set index probe, where the
// cost rule picks it), and "shard2" a 2-shard coordinator, which also
// prunes the shards the subtree's names do not route to.
func BenchmarkSubtreeKeySet(b *testing.B) {
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.CacheBytes = 0
	e, _, err := buildStandardEngine(ctx, 7, 20, 25, 200, cfg)
	if err != nil {
		b.Fatal(err)
	}
	scfg := cfg
	scfg.Shards = 2
	sharded, err := core.NewWithTree(e.DB(), e.Tree(), scfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sharded.Close()
	cat := query.NewDBCatalog(e.DB(), e.Tree())
	scanOpts := query.DefaultOptions()
	scanOpts.UseIndexes = false
	engines := []struct {
		name string
		run  func(string) error
	}{
		{"scan", func(q string) error { _, err := query.NewEngine(cat, scanOpts).Query(ctx, q); return err }},
		{"single", func(q string) error { _, err := query.NewEngine(cat, query.DefaultOptions()).Query(ctx, q); return err }},
		{"shard2", func(q string) error { _, err := sharded.Query(ctx, q); return err }},
	}
	tree := e.Tree()
	clade := tree.Root()
	for i := 0; i < tree.Len(); i++ {
		id := phylo.NodeID(i)
		if d, best := tree.LeafCount(id)-16, tree.LeafCount(clade)-16; !tree.Node(id).IsLeaf() && d*d < best*best {
			clade = id
		}
	}
	nodes := []struct {
		name string
		id   phylo.NodeID
	}{{"leaf", tree.Leaves()[0]}, {"clade16", clade}, {"root", tree.Root()}}
	for _, n := range nodes {
		q := "SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '" + tree.Node(n.id).Name + "')"
		for _, eng := range engines {
			b.Run(n.name+"/"+eng.name, func(b *testing.B) {
				if err := eng.run(q); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := eng.run(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
