package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/experiments"
	"drugtree/internal/integrate"
	"drugtree/internal/mobile"
	"drugtree/internal/phylo"
	"drugtree/internal/query"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// The browse workload is the poster's mobile path: two closed-loop
// mobile.Client sessions (LOD+delta, viewport budget 100) talk over
// net.Pipe to one mobile.Server. One interaction is Client.Open(node)
// plus a Client.Query for the new focus's activity overlay (a
// WITHIN_SUBTREE COUNT/AVG over activities), timed from the call until
// both replies are decoded. Each client runs a seeded series of short
// sessions, each an experiments.GenerateTrace walk that starts at the
// root: a user opening the app and drilling down. Many short sessions
// per run, rather than one long walk, keep a run's mix of large and
// small subtrees close to the mix of every other run.

// affUnit makes every generated affinity a multiple of 1/1024, so the
// benchmark's own per-subtree sums are exact and comparable with the
// engine's overlay bit for bit.
const affUnit = 1024

// browseTreeSeed fixes the browse tree's topology.
const browseTreeSeed = 1

type browseEnv struct {
	eng     *core.Engine
	db      *store.DB
	clients []*browseClient
	leaves  []string
	buildS  float64
	rows    int
	// prefix counts and sums (in 1/affUnit) of activity rows by
	// preorder position, for the expected overlay of any subtree.
	cnt, sum []int64
	serving  sync.WaitGroup
}

type browseClient struct {
	c      *mobile.Client
	conn   net.Conn
	walk   []string
	pos    int
	rec    *phaseRec
	tr     *tracer
	bytes  int64
	seen   []interaction
	budget int
	mutate func(class string, res *query.Result)
}

// interaction is what the answer check needs from one interaction.
type interaction struct {
	focus phylo.NodeID
	nodes uint64 // fingerprint of the client's node keys after Open
	count int64
	avg   float64
	null  bool
}

func buildBrowse(ctx context.Context, seed int64, sz sizes, mutate func(string, *query.Result)) (*browseEnv, error) {
	// Every seed browses the same tree: the shape near the root sets
	// how much consecutive viewports overlap, and trees drawn per seed
	// moved bytes per interaction by about ±10% between seeds. The
	// seed draws the activity rows and the sessions.
	tree, err := datagen.RandomTopology(sz.leaves, browseTreeSeed)
	if err != nil {
		return nil, err
	}
	cfg := serveConfig()
	db, err := store.OpenWith("", cfg.StoreOptions())
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateTable(integrate.TableActivities, source.ActivitySchema)
	if err == nil {
		err = tbl.CreateIndex("protein_id", store.IndexHash)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	leaves := tree.LeafNames()
	var rows []store.Row
	for _, leaf := range leaves {
		for n := 1 + rng.Intn(2*sz.actsPerLeaf-1); n > 0; n-- {
			rows = append(rows, store.Row{
				store.StringValue(leaf),
				store.StringValue(fmt.Sprintf("LIG%04d", rng.Intn(200))),
				store.FloatValue(4 + float64(rng.Intn(6*affUnit))/affUnit),
				store.StringValue("bench"),
			})
		}
	}
	if err := db.CommitDeltas([]store.TableDelta{{Table: integrate.TableActivities, Inserts: rows}}); err != nil {
		db.Close()
		return nil, err
	}
	t0 := time.Now()
	eng, err := core.NewWithTree(db, tree, cfg)
	if err != nil {
		db.Close()
		return nil, err
	}
	env := &browseEnv{eng: eng, db: db, leaves: leaves, buildS: time.Since(t0).Seconds(), rows: len(rows)}
	env.cnt = make([]int64, tree.Len()+1)
	env.sum = make([]int64, tree.Len()+1)
	for _, r := range rows {
		id, err := eng.NodeByName(r[0].S)
		if err != nil {
			env.close()
			return nil, err
		}
		p := tree.Pre(id)
		env.cnt[p+1]++
		env.sum[p+1] += int64(r[2].F * affUnit)
	}
	for p := 1; p <= tree.Len(); p++ {
		env.cnt[p] += env.cnt[p-1]
		env.sum[p] += env.sum[p-1]
	}

	server := mobile.NewServer(eng)
	server.Async = true
	server.MaxSessions = 256
	for i := 0; i < 2; i++ {
		cc, sc := net.Pipe()
		env.serving.Add(1)
		go func() {
			defer env.serving.Done()
			// A session that breaks fails the client's next call,
			// which the run counts; the server's error adds nothing.
			_ = server.ServeConn(ctx, sc)
		}()
		c, err := mobile.Dial(cc, mobile.StrategyLODDelta, sz.budget)
		if err != nil {
			cc.Close()
			env.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		env.clients = append(env.clients, &browseClient{
			c: c, conn: cc, budget: sz.budget, rec: newPhaseRec(time.Now()), mutate: mutate,
			walk: sessions(tree, sz, seed*100+int64(i)),
		})
	}
	return env, nil
}

// sessions concatenates one client's seeded sessions into its walk.
func sessions(tree *phylo.Tree, sz sizes, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var walk []string
	for len(walk) < sz.walkSteps {
		walk = append(walk, experiments.GenerateTrace(tree, sz.sessionLen, rng.Int63())...)
	}
	return walk
}

func (e *browseEnv) close() {
	for _, bc := range e.clients {
		bc.c.Close()
		bc.conn.Close()
	}
	e.serving.Wait()
	e.eng.Close()
	e.db.Close()
}

// expected returns the overlay the benchmark's own rows imply for the
// subtree at id.
func (e *browseEnv) expected(id phylo.NodeID) (int64, float64) {
	lo, hi := e.eng.Tree().SubtreeInterval(id)
	n := e.cnt[hi+1] - e.cnt[lo]
	s := e.sum[hi+1] - e.sum[lo]
	return n, float64(s) / affUnit / float64(n)
}

// nodeFingerprint hashes a set of preorder numbers order-independently.
func nodeFingerprint(pres []int64) uint64 {
	var sum uint64
	for _, p := range pres {
		x := uint64(p) + 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		sum += x ^ x>>31
	}
	return sum + uint64(len(pres))
}

func (bc *browseClient) step(env *browseEnv) {
	focus := bc.walk[bc.pos]
	bc.pos = (bc.pos + 1) % len(bc.walk)
	b0 := bc.c.BytesDown
	t0 := time.Now()
	op := bc.tr.newOp()
	root := bc.tr.begin(op, -1, "bench.op")
	h := bc.tr.begin(op, root, "mobile.client_open")
	_, err := bc.c.Open(focus)
	bc.tr.end(h)
	var res *mobile.QueryResult
	if err == nil {
		h = bc.tr.begin(op, root, "mobile.client_query")
		res, err = bc.c.Query(subtreeStmt(focus))
		bc.tr.end(h)
	}
	bc.tr.end(root)
	d := time.Since(t0)
	bc.rec.t.attempted++
	if err != nil {
		if mobile.IsBusy(err) {
			bc.rec.t.shed++
		} else {
			bc.rec.t.failed++
		}
		return
	}
	bc.rec.add("interaction", d)
	bc.bytes += bc.c.BytesDown - b0
	if bc.mutate != nil {
		bc.mutate(classSubtree, &query.Result{Columns: res.Columns, Rows: res.Rows})
	}
	// The walk holds only the tree's own node names; Open above
	// already resolved this one.
	id, _ := env.eng.NodeByName(focus)
	pres := make([]int64, 0, len(bc.c.Nodes))
	for p := range bc.c.Nodes {
		pres = append(pres, p)
	}
	in := interaction{focus: id, nodes: nodeFingerprint(pres)}
	if len(res.Rows) == 1 && len(res.Rows[0]) == 2 {
		in.count = res.Rows[0][0].I
		in.null = res.Rows[0][1].IsNull()
		in.avg = res.Rows[0][1].F
	} else {
		in.count = -1
	}
	bc.seen = append(bc.seen, in)
}

// slice runs both clients closed-loop for d.
func (e *browseEnv) slice(d time.Duration, tracers []*tracer) *phaseRec {
	start := time.Now()
	for i, bc := range e.clients {
		bc.rec = newPhaseRec(start)
		bc.tr = nil
		if tracers != nil {
			bc.tr = tracers[i]
		}
	}
	deadline := time.Now().Add(d)
	each(e.clients, func(bc *browseClient) {
		for time.Now().Before(deadline) {
			bc.step(e)
		}
	})
	out := newPhaseRec(time.Now())
	for _, bc := range e.clients {
		out.merge(bc.rec)
	}
	return out
}

// check compares every recorded interaction with the viewport
// mobile.BuildViewport selects and with the benchmark's own overlay
// counts, and returns the number of wrong interactions.
func (e *browseEnv) check() (int64, error) {
	type want struct {
		nodes uint64
		count int64
		avg   float64
	}
	memo := map[phylo.NodeID]want{}
	var wrong int64
	var first error
	for _, bc := range e.clients {
		for _, in := range bc.seen {
			w, ok := memo[in.focus]
			if !ok {
				vp := mobile.BuildViewport(e.eng, in.focus, bc.budget)
				pres := make([]int64, len(vp))
				for i, n := range vp {
					pres[i] = n.Pre
				}
				w.nodes = nodeFingerprint(pres)
				w.count, w.avg = e.expected(in.focus)
				memo[in.focus] = w
			}
			var err error
			switch got := in; {
			case got.nodes != w.nodes:
				err = fmt.Errorf("client node set after opening %s differs from BuildViewport", e.eng.Tree().Node(in.focus).Name)
			case got.count != w.count || got.null || !closeEnough(got.avg, w.avg):
				err = fmt.Errorf("overlay for %s: count %d avg %v, rows imply %d avg %v",
					e.eng.Tree().Node(in.focus).Name, got.count, got.avg, w.count, w.avg)
			}
			if err != nil {
				wrong++
				if first == nil {
					first = err
				}
			}
		}
	}
	return wrong, first
}

func runBrowse(ctx context.Context, o options) (*outcome, error) {
	env, setupS, err := setUp(o, func() (*browseEnv, error) {
		e, err := buildBrowse(ctx, o.seed, o.sz, o.mutate)
		if err != nil {
			return nil, err
		}
		each(e.clients, func(bc *browseClient) {
			for j := 0; j < o.sz.warmOps; j++ {
				bc.step(e)
			}
		})
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	eng := env.eng
	out := newOutcome(o)
	out.info["sizes"] = map[string]any{
		"leaves": o.sz.leaves, "tree_nodes": eng.Tree().Len(), "activities": env.rows,
		"viewport_budget": o.sz.budget, "clients": len(env.clients), "semantic_cache_bytes": serveConfig().CacheBytes,
	}
	for _, bc := range env.clients {
		bc.seen = bc.seen[:0]
		bc.bytes = 0
	}
	cache0 := eng.CacheStats()
	adm0 := eng.Limiter().Stats()
	g0 := runtime.NumGoroutine()

	base := time.Now()
	var ops atomic.Int64
	win := measure(o, len(env.clients), base, &ops, env.slice)
	cache1 := eng.CacheStats()
	adm1 := eng.Limiter().Stats()
	var replayTr *tracer
	var bo *browseObs
	lo := newLayerObs()
	if o.trace {
		replayTr = newTracer(base, &ops)
		var err error
		bo, err = env.replay(ctx, o, replayTr, lo)
		if err != nil {
			out.fail(fmt.Errorf("layer replay: %w", err))
		}
	}
	out.info["goroutines"] = map[string]any{"before_window": g0, "after_window": runtime.NumGoroutine()}
	out.info["settle_s"] = settle(g0).Seconds()
	heap := heapMB()

	wrong, err := env.check()
	if err != nil {
		out.fail(err)
	}
	win.all.t.wrong += wrong
	out.tally.add(win.all.t)
	var bytesDown int64
	for _, bc := range env.clients {
		bytesDown += bc.bytes
	}
	out.info["interactions_checked"] = len(env.clients[0].seen) + len(env.clients[1].seen)

	if !o.trace {
		out.endToEnd(setupS, win.all, o.seconds, ratio(float64(bytesDown), float64(len(win.all.all))), heap)
		return out, nil
	}
	m := out.layerMetrics()
	replaySpans := spansOf(replayTr)
	if bo != nil {
		m["mobile.viewport_us"] = metric{us(replaySpans.durations("mobile.viewport").quantile(0.5)), "us"}
		m["mobile.diff_us"] = metric{us(replaySpans.durations("mobile.diff").quantile(0.5)), "us"}
		m["mobile.encode_us"] = metric{us(replaySpans.durations("mobile.encode").quantile(0.5)), "us"}
		m["mobile.decode_us"] = metric{us(replaySpans.durations("mobile.decode").quantile(0.5)), "us"}
		m["mobile.reply_bytes"] = metric{ratio(float64(bo.replyBytes), float64(bo.n)), "bytes"}
		m["mobile.nodes_shipped"] = metric{ratio(float64(bo.shipped), float64(bo.n)), "count"}
		m["core.open_subtree_us"] = metric{us(replaySpans.durations("core.open_subtree").quantile(0.5)), "us"}
		m["core.rows_per_shipped_node"] = metric{ratio(float64(bo.openRows), float64(bo.viewport)), "ratio"}
		m["core.prefetch_us"] = metric{us(replaySpans.durations("core.prefetch").quantile(0.5)), "us"}
		m["core.prefetched_per_interaction"] = metric{ratio(float64(bo.prefetched), float64(bo.n)), "count"}
	}
	m["core.query_us.subtree"] = metric{us(replaySpans.durations("core.query.subtree").quantile(0.5)), "us"}
	m["core.build_s"] = metric{env.buildS, "s"}
	cacheMetrics(m, cache0, cache1)
	admissionMetrics(m, adm0, adm1, 0)
	statementLayerMetrics(m, replaySpans, lo)
	out.traceMetrics(m, win.untraced, win.traced, replaySpans, spansOf(append(win.tracers, replayTr)...))
	return out, nil
}

// browseObs counts what the browse replay saw.
type browseObs struct {
	n, replyBytes, shipped, openRows, viewport, prefetched int64
}

// replay continues both clients' walks, alternating, through the
// calls mobile.Server makes for an Open — Engine.OpenSubtree,
// Engine.RunPrefetch (synchronously here), BuildViewport,
// DiffViewports, WriteMsg and ReadMsg of the delta — followed by the
// overlay statement through the statement replay.
func (e *browseEnv) replay(ctx context.Context, o options, tr *tracer, lo *layerObs) (*browseObs, error) {
	mir := newMirror(e.eng)
	held := make([]map[int64]bool, len(e.clients))
	for i, bc := range e.clients {
		held[i] = make(map[int64]bool, len(bc.c.Nodes))
		for p := range bc.c.Nodes {
			held[i][p] = true
		}
	}
	bo := &browseObs{}
	var buf bytes.Buffer
	for i := 0; i < o.sz.replayOps; i++ {
		ci := i % len(e.clients)
		bc := e.clients[ci]
		focus := bc.walk[bc.pos]
		bc.pos = (bc.pos + 1) % len(bc.walk)
		id, err := e.eng.NodeByName(focus)
		if err != nil {
			return nil, err
		}
		op := tr.newOp()
		root := tr.begin(op, -1, "bench.replay")
		h := tr.begin(op, root, "core.open_subtree")
		views, _, err := e.eng.OpenSubtree(ctx, focus)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		h = tr.begin(op, root, "core.prefetch")
		n := e.eng.RunPrefetch(ctx)
		tr.end(h)
		h = tr.begin(op, root, "mobile.viewport")
		vp := mobile.BuildViewport(e.eng, id, bc.budget)
		tr.end(h)
		h = tr.begin(op, root, "mobile.diff")
		add, remove := mobile.DiffViewports(held[ci], vp)
		tr.end(h)
		for _, a := range add {
			held[ci][a.Pre] = true
		}
		for _, p := range remove {
			delete(held[ci], p)
		}
		buf.Reset()
		h = tr.begin(op, root, "mobile.encode")
		err = mobile.WriteMsg(&buf, &mobile.TreeDelta{Add: add, Remove: remove, Focus: int64(e.eng.Tree().Pre(id))})
		tr.end(h)
		if err != nil {
			return nil, err
		}
		size := buf.Len()
		h = tr.begin(op, root, "mobile.decode")
		_, _, err = mobile.ReadMsg(bufio.NewReader(&buf))
		tr.end(h)
		if err != nil {
			return nil, err
		}
		err = mir.replayStatement(ctx, tr, op, root, classSubtree, subtreeStmt(focus), leafOf(e.leaves, op), lo)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		bo.n++
		bo.replyBytes += int64(size)
		bo.shipped += int64(len(add))
		bo.openRows += int64(len(views))
		bo.viewport += int64(len(vp))
		bo.prefetched += int64(n)
	}
	return bo, nil
}
