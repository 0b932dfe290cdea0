package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/query"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// serveConfig is the engine configuration drugtreed serves with: the
// default optimizer, a 256-entry statement cache, and admission
// control at 8 concurrent / 64 queued queries.
func serveConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.QueryCacheEntries = 256
	cfg.Admission = &admission.Config{MaxConcurrency: 8, MaxQueue: 64}
	cfg.WALSync = store.SyncInterval
	return cfg
}

// analystEnv is one built instance of the analyst dataset: the
// generated sources imported through integrate.ImportAll and an
// engine over them.
type analystEnv struct {
	ds       *datagen.Dataset
	db       *store.DB
	eng      *core.Engine
	dir      string // durable store directory ("" when in memory)
	importS  float64
	buildS   float64
	families []string
}

func (a *analystEnv) close() {
	a.eng.Close()
	a.db.Close()
}

// buildAnalyst generates the analyst dataset from the seed, imports
// it and builds the engine. A non-empty dir makes the store durable
// there; shards > 1 serves it scatter-gather with one replica per
// shard.
func buildAnalyst(ctx context.Context, seed int64, sz sizes, dir string, shards int) (*analystEnv, error) {
	gen := datagen.DefaultConfig()
	gen.Seed = seed
	gen.NumFamilies = sz.families
	gen.ProteinsPerFamily = sz.perFamily
	gen.NumLigands = sz.ligands
	gen.ActivityDensity = sz.density
	ds, err := datagen.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	cfg := serveConfig()
	db, err := store.OpenWith(dir, cfg.StoreOptions())
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	env := &analystEnv{ds: ds, db: db, dir: dir}
	im := integrate.NewImporter(db, source.NewBundle(ds, netsim.ProfileLAN, seed, true))
	t0 := time.Now()
	if _, err := im.ImportAll(ctx); err != nil {
		db.Close()
		return nil, fmt.Errorf("import: %w", err)
	}
	env.importS = time.Since(t0).Seconds()
	if shards > 1 {
		cfg.Shards = shards
		cfg.Replicas = 1
		cfg.MaxLagSeqs = 0
	}
	t0 = time.Now()
	eng, err := core.New(db, cfg)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("build engine: %w", err)
	}
	if coord := eng.Coordinator(); coord != nil && cfg.Replicas > 0 {
		// One replication tick, as drugtreed's pump would run, so
		// followers serve from the start.
		if err := coord.SyncReplicas(ctx); err != nil {
			eng.Close()
			db.Close()
			return nil, fmt.Errorf("replicate: %w", err)
		}
	}
	env.buildS = time.Since(t0).Seconds()
	env.eng = eng
	fams := map[string]bool{}
	for _, p := range ds.Proteins {
		fams[p.Family] = true
	}
	for f := range fams {
		env.families = append(env.families, f)
	}
	sort.Strings(env.families)
	return env, nil
}

// statement classes of the analyst mix.
const (
	classPoint   = "point"
	classSubtree = "subtree"
	classScan    = "scan"
)

var classes = []string{classPoint, classSubtree, classScan}

// mix generates one client's statements: point : subtree : scan at
// 9 : 9 : 2, in a seeded order of 20 classes that repeats, so every
// run has the same class shares. Each class walks a cyclic list of
// distinct statements, disjoint from the other client's: the client's
// half of every point key (tree node, protein, ligand) and of every
// tree node's subtree aggregate, shuffled, and 36 scans spread evenly
// over the four shapes. One client alone issues more than 256 other
// statements before any of its statements recurs, so the statement
// cache (256 entries) misses in every class and no class median sits
// on the hit/miss cliff; the scans' list stays short because the
// oracle must run each distinct scan.
type mix struct {
	pattern  []string
	points   []string
	subtrees []string
	scans    []string
	k        int
	pos      map[string]int
}

// domain is the shared, read-only parameter space of a dataset.
type domain struct {
	points   []string
	subtrees []string    // one subtree aggregate per tree node
	scans    [4][]string // candidate statements of each scan shape
	leaves   []string
}

// newDomain enumerates the dataset's statements. The scan shapes are
// the overlay join for a clade, top-k affinity for a ligand, a
// group-by within a family, and the three-source join.
func newDomain(eng *core.Engine, ds *datagen.Dataset, fams []string, sz sizes) *domain {
	t := eng.Tree()
	d := &domain{}
	for p := 0; p < t.Len(); p++ {
		id := t.NodeAtPre(p)
		n := t.Node(id)
		d.points = append(d.points, fmt.Sprintf("SELECT name, depth, leaf_count, end_pre FROM tree_nodes WHERE pre = %d", p))
		d.subtrees = append(d.subtrees, subtreeStmt(n.Name))
		if n.IsLeaf() {
			d.leaves = append(d.leaves, n.Name)
		} else if lc := t.LeafCount(id); lc >= sz.minCladeLeaves && lc <= sz.maxCladeLeaves {
			d.scans[0] = append(d.scans[0], fmt.Sprintf(`SELECT t.name, a.ligand_id, a.affinity FROM tree_nodes t JOIN activities a ON t.name = a.protein_id WHERE WITHIN_SUBTREE(t.pre, '%s') AND t.is_leaf = TRUE`, n.Name))
		}
	}
	for _, p := range ds.Proteins {
		d.points = append(d.points, fmt.Sprintf("SELECT accession, family, length FROM proteins WHERE accession = '%s'", p.ID))
	}
	for _, l := range ds.Ligands {
		d.points = append(d.points, fmt.Sprintf("SELECT ligand_id, name, weight, formula FROM ligands WHERE ligand_id = '%s'", l.ID))
		d.scans[1] = append(d.scans[1], fmt.Sprintf(`SELECT protein_id, affinity FROM activities WHERE ligand_id = '%s' ORDER BY affinity DESC LIMIT 10`, l.ID))
	}
	for _, f := range fams {
		d.scans[2] = append(d.scans[2], fmt.Sprintf(`SELECT a.ligand_id, COUNT(*), AVG(a.affinity) FROM activities a JOIN proteins p ON p.accession = a.protein_id WHERE p.family = '%s' GROUP BY a.ligand_id`, f))
		for _, th := range []float64{6.8, 7.0, 7.2} {
			d.scans[3] = append(d.scans[3], fmt.Sprintf(`SELECT p.accession, l.name, a.affinity FROM activities a JOIN proteins p ON p.accession = a.protein_id JOIN ligands l ON l.ligand_id = a.ligand_id WHERE p.family = '%s' AND a.affinity > %.1f`, f, th))
		}
	}
	return d
}

const subtreePrefix = "SELECT COUNT(*), AVG(affinity) FROM activities WHERE WITHIN_SUBTREE(protein_id, '"

func subtreeStmt(node string) string { return subtreePrefix + node + "')" }

// share returns client's shuffled share of candidates: every
// clients-th one, so the clients' shares are disjoint.
func share(rng *rand.Rand, candidates []string, client, clients int) []string {
	var out []string
	for i := client; i < len(candidates); i += clients {
		out = append(out, candidates[i])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// newMix builds client's statement stream.
func newMix(d *domain, sz sizes, seed int64, client, clients int) *mix {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	m := &mix{
		points:   share(rng, d.points, client, clients),
		subtrees: share(rng, d.subtrees, client, clients),
		pos:      map[string]int{},
	}
	var shapes [4][]string
	for s := range shapes {
		shapes[s] = share(rng, d.scans[s], client, clients)
	}
	for i := 0; len(m.scans) < sz.scanList && i < 4*sz.scanList; i++ {
		if s := shapes[i%4]; len(s) > i/4 {
			m.scans = append(m.scans, s[i/4])
		}
	}
	for i := 0; i < 20; i++ {
		switch {
		case i < 9:
			m.pattern = append(m.pattern, classPoint)
		case i < 18:
			m.pattern = append(m.pattern, classSubtree)
		default:
			m.pattern = append(m.pattern, classScan)
		}
	}
	rng.Shuffle(len(m.pattern), func(i, j int) { m.pattern[i], m.pattern[j] = m.pattern[j], m.pattern[i] })
	return m
}

// next returns the class and text of the client's next statement.
func (m *mix) next() (string, string) {
	class := m.pattern[m.k%len(m.pattern)]
	m.k++
	list := m.points
	switch class {
	case classSubtree:
		list = m.subtrees
	case classScan:
		list = m.scans
	}
	i := m.pos[class]
	m.pos[class] = i + 1
	return class, list[i%len(list)]
}

// phaseRec collects one worker's measurements in one window slice:
// every completed op's latency, when it completed (since base), and
// its class.
type phaseRec struct {
	base  time.Time
	all   samples
	at    samples
	class map[string]samples
	t     tally
}

func newPhaseRec(base time.Time) *phaseRec {
	return &phaseRec{base: base, class: map[string]samples{}}
}

func (p *phaseRec) add(class string, d time.Duration) {
	p.all = append(p.all, d)
	p.at = append(p.at, time.Since(p.base))
	p.class[class] = append(p.class[class], d)
}

func (p *phaseRec) merge(o *phaseRec) {
	p.all = append(p.all, o.all...)
	p.at = append(p.at, o.at...)
	for c, s := range o.class {
		p.class[c] = append(p.class[c], s...)
	}
	p.t.add(o.t)
}

// queryWorker is one closed-loop analyst client.
type queryWorker struct {
	eng      *core.Engine
	mix      *mix
	obs      observations
	repeats  bool // results may be compared across repeats (read-only data)
	mutate   func(class string, res *query.Result)
	tr       *tracer
	rec      *phaseRec
	queueMax int
}

// step issues one statement and records its outcome. Only the call
// into the engine (and its spans) is timed; the answer bookkeeping
// runs after the clock stops.
func (w *queryWorker) step(ctx context.Context) {
	class, src := w.mix.next()
	t0 := time.Now()
	op := w.tr.newOp()
	root := w.tr.begin(op, -1, "bench.op")
	h := w.tr.begin(op, root, "core.query."+class)
	res, err := w.eng.Query(ctx, src)
	w.tr.end(h)
	w.tr.end(root)
	d := time.Since(t0)
	w.rec.t.attempted++
	if err != nil {
		if admission.IsShed(err) {
			w.rec.t.shed++
		} else {
			w.rec.t.failed++
		}
		return
	}
	w.rec.add(class, d)
	if w.mutate != nil {
		w.mutate(class, res)
	}
	w.obs.record(class, src, res, w.repeats)
	if w.tr != nil {
		if l := w.eng.Limiter(); l != nil {
			if q := l.Stats().Queued; q > w.queueMax {
				w.queueMax = q
			}
		}
	}
}

// leafOf maps an operation id (positive) onto a tree leaf, the key of
// the replay's store probes.
func leafOf(leaves []string, op int64) string {
	return leaves[op%int64(len(leaves))]
}
