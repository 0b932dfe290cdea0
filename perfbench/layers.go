package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/integrate"
	"drugtree/internal/query"
	"drugtree/internal/store"
)

// The layer replay. core.Engine.Query is one public call, so from the
// benchmark's own code the traced window can time it only whole. The
// replay continues each client's own statement stream after the
// traced window, one statement at a time, and makes the calls the
// engine makes beneath Query itself, each as a span of one replay op:
//
//	core.query.<class>  Engine.Query — its statement-cache outcome is
//	                    exact here, because nothing else runs queries
//	query.parse         query.Parse
//	store.pin           DB.PinSnapshot
//	query.plan          query.BuildLogical + query.Optimize
//	query.run_at        query.Engine.RunAt (plans again, then executes)
//	store.lookup        Table.LookupEqualAt on activities.protein_id
//	store.gather        Table.GatherColsAt over the looked-up rows
//	store.scan          Table.ScanBatchAt over activities (scan class)
//	shard.query         shard.Coordinator.Query (sharded engines)
//	store.release       SnapshotHandle.Release
//
// The mirror query engine runs over a DBCatalog wired exactly like
// the engine's own (same tree, same overlay, same options).

type layerObs struct {
	hits, lookups   map[string]int64 // statement-cache hits and calls, by class
	overlay, subQ   int64            // subtree statements answered by OverlayRead, subtree statements
	examined, rows  int64            // rows scanned+indexed, rows returned (RunAt stats)
	batches, runs   int64
	scanRows        int64
	scanTime        time.Duration
	gatherRows      int64
	gatherTime      time.Duration
	fanout, shardQs int64
	pruned          int64
}

func newLayerObs() *layerObs {
	return &layerObs{hits: map[string]int64{}, lookups: map[string]int64{}}
}

type mirror struct {
	eng  *core.Engine
	db   *store.DB
	cat  *query.DBCatalog
	sql  *query.Engine
	opts query.Options
}

func newMirror(eng *core.Engine) *mirror {
	cat := query.NewDBCatalog(eng.DB(), eng.Tree())
	if ov := eng.Overlay(); ov != nil {
		cat.OverlayAggs = ov
	}
	opts := serveConfig().QueryOptions
	return &mirror{eng: eng, db: eng.DB(), cat: cat, sql: query.NewEngine(cat, opts), opts: opts}
}

// replayStatement runs one statement through the engine and then
// through its layers one call at a time.
func (m *mirror) replayStatement(ctx context.Context, tr *tracer, op int64, parent int32, class, src, leaf string, obs *layerObs) error {
	hits := m.eng.Metrics.Counter("query.stmt_cache_hits")
	h0 := hits.Value()
	h := tr.begin(op, parent, "core.query."+class)
	res, err := m.eng.Query(ctx, src)
	tr.end(h)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	obs.lookups[class]++
	obs.hits[class] += hits.Value() - h0
	if class == classSubtree {
		obs.subQ++
		if strings.Contains(res.Plan, "OverlayRead") {
			obs.overlay++
		}
	}

	h = tr.begin(op, parent, "query.parse")
	stmt, err := query.Parse(src)
	tr.end(h)
	if err != nil {
		return err
	}
	h = tr.begin(op, parent, "store.pin")
	snap := m.db.PinSnapshot()
	tr.end(h)
	defer func() {
		h := tr.begin(op, parent, "store.release")
		snap.Release()
		tr.end(h)
	}()
	// Planning alone and RunAt (which plans again, then executes) each
	// get their own parse, and they alternate which goes first, so the
	// second one's warmer caches favour neither median; query.exec_us
	// is the difference of the two medians.
	plan := func() error {
		h := tr.begin(op, parent, "query.plan")
		defer tr.end(h)
		logical, err := query.BuildLogical(stmt, m.cat)
		if err == nil {
			_, err = query.Optimize(logical, m.cat, m.opts)
		}
		return err
	}
	var r *query.Result
	runAt := func() error {
		fresh, err := query.Parse(src)
		if err != nil {
			return err
		}
		h := tr.begin(op, parent, "query.run_at")
		defer tr.end(h)
		r, err = m.sql.RunAt(ctx, fresh, snap)
		return err
	}
	first, second := plan, runAt
	if op%2 == 1 {
		first, second = runAt, plan
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}
	obs.examined += r.Stats.RowsScanned + r.Stats.RowsIndexed
	obs.rows += r.Stats.RowsReturned
	obs.runs++
	for _, o := range r.Stats.Ops {
		if o != nil {
			obs.batches += o.Batches
		}
	}

	act, err := m.db.Table(integrate.TableActivities)
	if err != nil {
		return err
	}
	ver, _ := snap.Version(integrate.TableActivities)
	h = tr.begin(op, parent, "store.lookup")
	ids, err := act.LookupEqualAt(ver, "protein_id", store.StringValue(leaf))
	tr.end(h)
	if err != nil {
		return err
	}
	h = tr.begin(op, parent, "store.gather")
	cb := act.GatherColsAt(ver, ids)
	obs.gatherTime += tr.end(h)
	obs.gatherRows += int64(cb.Rows)
	if class == classScan {
		h = tr.begin(op, parent, "store.scan")
		act.ScanBatchAt(ver, 1024, func(b *store.ColBatch) bool {
			obs.scanRows += int64(b.Rows)
			return true
		})
		obs.scanTime += tr.end(h)
	}

	if coord := m.eng.Coordinator(); coord != nil {
		h = tr.begin(op, parent, "shard.query")
		sr, err := coord.Query(ctx, src)
		tr.end(h)
		if err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
		shards, pruned := gatherCounts(sr.Plan)
		obs.shardQs++
		obs.fanout += shards
		obs.pruned += pruned
	}
	return nil
}

// gatherCounts reads the fan-out and pruned-shard counts from a
// coordinator plan's "Gather [shards=N pruned=M ...]" line.
func gatherCounts(plan string) (shards, pruned int64) {
	line, _, _ := strings.Cut(plan, "\n")
	for _, f := range strings.Fields(strings.NewReplacer("[", " ", "]", " ").Replace(line)) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "shards":
			shards = n
		case "pruned":
			pruned = n
		}
	}
	return shards, pruned
}

// statementLayerMetrics turns replay observations and spans into the
// query, store, shard and statement-cache per-layer metrics.
func statementLayerMetrics(out map[string]metric, spans spanSet, obs *layerObs) {
	for _, c := range classes {
		out["core.stmt_cache_hit_ratio."+c] = metric{ratio(float64(obs.hits[c]), float64(obs.lookups[c])), "ratio"}
	}
	out["core.overlay_read_share"] = metric{ratio(float64(obs.overlay), float64(obs.subQ)), "ratio"}
	out["query.parse_us"] = metric{us(spans.durations("query.parse").quantile(0.5)), "us"}
	plan := spans.durations("query.plan").quantile(0.5)
	out["query.plan_us"] = metric{us(plan), "us"}
	out["query.exec_us"] = metric{us(spans.durations("query.run_at").quantile(0.5) - plan), "us"}
	out["query.rows_examined_per_row_returned"] = metric{ratio(float64(obs.examined), float64(obs.rows)), "ratio"}
	out["query.batches_per_query"] = metric{ratio(float64(obs.batches), float64(obs.runs)), "count"}
	pin := spans.durations("store.pin").quantile(0.5) + spans.durations("store.release").quantile(0.5)
	out["store.pin_us"] = metric{us(pin), "us"}
	out["store.lookup_us"] = metric{us(spans.durations("store.lookup").quantile(0.5)), "us"}
	out["store.scan_ns_per_row"] = metric{ratio(float64(obs.scanTime), float64(obs.scanRows)), "ns"}
	out["store.gather_ns_per_row"] = metric{ratio(float64(obs.gatherTime), float64(obs.gatherRows)), "ns"}
	out["shard.query_us"] = metric{us(spans.durations("shard.query").quantile(0.5)), "us"}
	out["shard.fanout"] = metric{ratio(float64(obs.fanout), float64(obs.shardQs)), "count"}
	out["shard.pruned_share"] = metric{ratio(float64(obs.pruned), float64(obs.fanout+obs.pruned)), "ratio"}
}
