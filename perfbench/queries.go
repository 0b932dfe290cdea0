package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sync/atomic"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/integrate"
	"drugtree/internal/mobile"
	"drugtree/internal/query"
)

// queryRun is one built analyst, ingest or scatter instance with its
// clients.
type queryRun struct {
	env     *analystEnv
	dom     *domain
	workers []*queryWorker
	writer  *writer // ingest only
	initial int64   // activities rows before the window (ingest)
}

func (r *queryRun) close() {
	r.env.close()
	if r.env.dir != "" {
		os.RemoveAll(r.env.dir)
	}
}

// readers returns the closed-loop client count: two, except on
// ingest, where the open-loop writer takes the second goroutine.
func readers(workload string) int {
	if workload == "ingest" {
		return 1
	}
	return 2
}

func setupQueries(ctx context.Context, o options) (*queryRun, error) {
	dir := ""
	shards := 0
	switch o.workload {
	case "ingest":
		d, err := os.MkdirTemp(o.tmp, "ingest-")
		if err != nil {
			return nil, err
		}
		dir = d
	case "scatter":
		shards = 2
	}
	env, err := buildAnalyst(ctx, o.seed, o.sz, dir, shards)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	r := &queryRun{env: env, dom: newDomain(env.eng, env.ds, env.families, o.sz)}
	for i := 0; i < readers(o.workload); i++ {
		r.workers = append(r.workers, &queryWorker{
			eng:     env.eng,
			mix:     newMix(r.dom, o.sz, o.seed, i, readers(o.workload)),
			obs:     observations{},
			repeats: o.workload != "ingest",
			mutate:  o.mutate,
			rec:     newPhaseRec(time.Now()),
		})
	}
	if o.workload == "ingest" {
		r.writer, err = newWriter(env.db, r.dom.leaves, o.sz, o.seed)
		if err != nil {
			r.close()
			return nil, err
		}
		r.initial = int64(len(r.writer.live))
	}
	// Warm-up: a fixed number of ops per client, counted in set-up
	// time, so work a change defers to first use still shows.
	each(r.workers, func(w *queryWorker) {
		for i := 0; i < o.sz.warmOps; i++ {
			w.step(ctx)
		}
	})
	return r, nil
}

// slice runs every client closed-loop for d and returns the merged
// record. With tracers set, each worker records spans.
func (r *queryRun) slice(ctx context.Context, d time.Duration, tracers []*tracer) *phaseRec {
	recs := make([]*phaseRec, len(r.workers))
	start := time.Now()
	for i, w := range r.workers {
		recs[i] = newPhaseRec(start)
		w.rec = recs[i]
		w.tr = nil
		if tracers != nil {
			w.tr = tracers[i]
		}
	}
	deadline := time.Now().Add(d)
	each(r.workers, func(w *queryWorker) {
		for time.Now().Before(deadline) {
			w.step(ctx)
		}
	})
	out := newPhaseRec(time.Now())
	for _, rec := range recs {
		out.merge(rec)
	}
	return out
}

func runQueriesWorkload(ctx context.Context, o options) (*outcome, error) {
	run, setupS, err := setUp(o, func() (*queryRun, error) { return setupQueries(ctx, o) })
	if err != nil {
		return nil, err
	}
	defer run.close()
	eng := run.env.eng
	out := newOutcome(o)
	out.info["sizes"] = map[string]any{
		"families": o.sz.families, "proteins_per_family": o.sz.perFamily, "ligands": o.sz.ligands,
		"activity_density": o.sz.density, "tree_nodes": eng.Tree().Len(), "activities": tableLen(run.env, integrate.TableActivities),
		"point_keys": len(run.dom.points), "scans_per_client_cycle": o.sz.scanList, "readers": len(run.workers),
		"shards": o.workload == "scatter", "stmt_cache_entries": 256,
	}

	base := time.Now()
	var ops atomic.Int64
	var writerTr *tracer
	if run.writer != nil {
		if o.trace {
			writerTr = newTracer(base, &ops)
			run.writer.tr = writerTr
		}
		run.writer.start()
	}
	walBefore := int64(0)
	if run.writer != nil {
		walBefore = run.writer.walSize()
	}
	cache0 := eng.CacheStats()
	var adm0 admission.Stats
	if l := eng.Limiter(); l != nil {
		adm0 = l.Stats()
	}

	win := measure(o, len(run.workers), base, &ops, func(d time.Duration, tracers []*tracer) *phaseRec {
		return run.slice(ctx, d, tracers)
	})

	// Traced runs replay each client's continuing stream through the
	// layers while the ingest writer keeps committing.
	var replayTr *tracer
	obs := newLayerObs()
	if o.trace {
		replayTr = newTracer(base, &ops)
		if err := replayQueries(ctx, run, o, replayTr, obs); err != nil {
			out.fail(fmt.Errorf("layer replay: %w", err))
		}
	}
	var walAfter int64
	if run.writer != nil {
		walAfter = run.writer.walSize()
		if err := run.writer.stopAndWait(); err != nil {
			return nil, fmt.Errorf("ingest writer: %w", err)
		}
	}
	heap := heapMB()

	allObs := observations{}
	for _, w := range run.workers {
		allObs.merge(w.obs, o.workload != "ingest")
	}
	// Reply sizes first: on ingest the checks replace each statement's
	// first answer with its re-run on the final state.
	var bytes, totalOps int64
	for _, s := range allObs {
		n, err := mobile.MsgSize(&mobile.QueryResult{Columns: s.cols, Rows: s.first})
		if err != nil {
			return nil, err
		}
		bytes += n * s.ops
		totalOps += s.ops
	}
	// Answer checks, outside every timed interval.
	t0 := time.Now()
	win.all.t.wrong += checkQueries(ctx, run, allObs, o, out)
	out.info["check_s"] = time.Since(t0).Seconds()
	out.tally.add(win.all.t)

	// A class's p99 is recorded only when at least 1000 samples carry it.
	perClass := map[string]any{}
	for _, c := range classes {
		s := win.all.class[c]
		rec := map[string]any{"p50_ms": ms(s.quantile(0.5)), "samples": len(s)}
		if len(s) >= 1000 {
			rec["p99_ms"] = ms(s.quantile(0.99))
		}
		perClass[c] = rec
	}
	out.info["classes"] = perClass
	out.info["distinct_statements"] = len(allObs)

	if !o.trace {
		out.endToEnd(setupS, win.all, o.seconds, ratio(float64(bytes), float64(totalOps)), heap)
		return out, nil
	}

	m := out.layerMetrics()
	winSpans := spansOf(win.tracers...)
	for _, c := range classes {
		m["core.query_us."+c] = metric{us(winSpans.durations("core.query." + c).quantile(0.5)), "us"}
	}
	m["core.build_s"] = metric{run.env.buildS, "s"}
	m["integrate.import_s"] = metric{run.env.importS, "s"}
	cacheMetrics(m, cache0, eng.CacheStats())
	qmax := 0
	for _, w := range run.workers {
		if w.queueMax > qmax {
			qmax = w.queueMax
		}
	}
	if l := eng.Limiter(); l != nil {
		admissionMetrics(m, adm0, l.Stats(), qmax)
	}
	replaySpans := spansOf(replayTr)
	statementLayerMetrics(m, replaySpans, obs)
	if coord := eng.Coordinator(); coord != nil {
		m["replica.max_served_lag"] = metric{float64(coord.MaxServedLag()), "count"}
		m["replica.promotions"] = metric{float64(coord.Promotions()), "count"}
	}
	if w := run.writer; w != nil {
		ws := spansOf(writerTr)
		m["store.commit_us"] = metric{us(ws.durations("store.commit").quantile(0.5)), "us"}
		m["store.wal_bytes_per_commit"] = metric{ratio(float64(walAfter-walBefore), float64(w.batches)), "bytes"}
		m["store.dead_versions"] = metric{mean(w.dead), "count"}
		m["store.pinned_versions"] = metric{mean(w.pinned), "count"}
		m["store.active_snapshots"] = metric{mean(w.active), "count"}
		m["load.lateness_p99_ms"] = metric{ms(w.late.quantile(0.99)), "ms"}
		m["load.commit_p50_ms"] = metric{ms(w.fromDue.quantile(0.5)), "ms"}
		m["load.commit_p99_ms"] = metric{ms(w.fromDue.quantile(0.99)), "ms"}
		out.info["ingest"] = map[string]any{"batches": w.batches, "commit_samples": len(w.fromDue)}
	}
	out.traceMetrics(m, win.untraced, win.traced, replaySpans, spansOf(append(win.tracers, replayTr, writerTr)...))
	return out, nil
}

// replayQueries continues the clients' streams round-robin through
// the layer replay.
func replayQueries(ctx context.Context, run *queryRun, o options, tr *tracer, obs *layerObs) error {
	mir := newMirror(run.env.eng)
	for i := 0; i < o.sz.replayOps; i++ {
		w := run.workers[i%len(run.workers)]
		class, src := w.mix.next()
		op := tr.newOp()
		root := tr.begin(op, -1, "bench.replay")
		err := mir.replayStatement(ctx, tr, op, root, class, src, leafOf(run.dom.leaves, op), obs)
		tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// checkQueries runs the answer checks and returns the number of wrong
// ops. Read-only workloads compare every distinct statement's answer
// with the oracle on the same (unchanging) snapshot. On ingest the
// data changed under every answer, so once the writer has stopped
// each distinct statement is run again and compared with the oracle
// on the final snapshot, and the store's own invariants are checked.
func checkQueries(ctx context.Context, run *queryRun, obs observations, o options, out *outcome) int64 {
	// The checks run after every timed interval; a lazier collector
	// shortens them.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	eng := run.env.eng
	if run.writer != nil {
		if err := ingestFinalCheck(ctx, eng, run.initial, run.writer); err != nil {
			out.fail(fmt.Errorf("ingest invariants: %w", err))
			return 1
		}
		for src, s := range obs {
			res, err := eng.Query(ctx, src)
			if err != nil {
				out.fail(fmt.Errorf("final re-run of %q: %w", src, err))
				return s.ops
			}
			if o.mutate != nil {
				o.mutate(s.class, res)
			}
			s.first, s.cols = res.Rows, res.Columns
		}
	}
	oracle := query.NewEngine(query.NewDBCatalog(eng.DB(), eng.Tree()), query.NaiveOptions())
	wrong, distinct, err := oracleCheck(ctx, obs, oracle, eng.Tree())
	out.info["oracle_statements"] = distinct
	if err != nil {
		out.fail(err)
		if wrong == 0 {
			wrong = 1
		}
	}
	return wrong
}

func tableLen(env *analystEnv, name string) int {
	t, err := env.db.Table(name)
	if err != nil {
		return 0
	}
	return t.Len()
}
