// Command perfbench is DrugTree's end-to-end benchmark. One run builds
// one workload from a seed, drives the engine through its public entry
// points for a fixed time, checks every answer, and prints the result
// as one JSON object on its last line of output.
//
//	perfbench --workload browse|analyst|ingest|scatter --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics. With
// --trace 1 the run alternates untraced and traced slices, replays the
// clients' streams through each layer's public functions, and the
// result holds the per-layer metrics plus the tracing overhead; the
// spans are written to .bench_build/trace/<workload>.tsv. See
// README.md for what each workload is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/cache"
	"drugtree/internal/query"
)

// sizes sets how big each workload is; tests shrink them.
type sizes struct {
	leaves         int     // browse: tree leaves
	actsPerLeaf    int     // browse: mean activity rows per leaf
	budget         int     // browse: viewport node budget
	walkSteps      int     // browse: interactions generated per client
	sessionLen     int     // browse: interactions per session
	families       int     // analyst: protein families
	perFamily      int     // analyst: proteins per family
	ligands        int     // analyst: ligands
	density        float64 // analyst: share of protein×ligand pairs measured
	scanList       int     // analyst: distinct scans in each client's cycle
	minCladeLeaves int     // analyst: smallest clade a scan joins over
	maxCladeLeaves int     // analyst: largest clade a scan joins over
	batchesPerSec  float64 // ingest: writer schedule
	churnK         int     // ingest: deletes (and inserts) per batch
	warmOps        int     // ops per client at the end of set-up
	replayOps      int     // traced runs: statements or interactions replayed through the layers
	setups         int     // set-ups per untraced run; setup_s is their median
}

var fullSizes = sizes{
	leaves: 20000, actsPerLeaf: 5, budget: 100, walkSteps: 20000, sessionLen: 20,
	families: 20, perFamily: 25, ligands: 200, density: 0.3,
	scanList: 36, minCladeLeaves: 8, maxCladeLeaves: 24,
	batchesPerSec: 100, churnK: 4,
	warmOps: 50, replayOps: 400, setups: 3,
}

// traceSlices is how many alternating untraced/traced slices a traced
// run's window is cut into.
const traceSlices = 8

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sz       sizes
	tmp      string // scratch directory for durable stores
	spanFile string // where a traced run writes its spans
	// mutate, when set, alters every answer before it is checked; the
	// tests use it to prove the checks catch a wrong answer.
	mutate func(class string, res *query.Result)
}

// setUp builds the workload's instance with build, as many times as
// the run sets up (once when traced), and returns the last instance
// with the time each set-up took; earlier instances are closed.
func setUp[E interface{ close() }](o options, build func() (E, error)) (env E, times []float64, err error) {
	n := o.sz.setups
	if o.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			env.close()
		}
		t0 := time.Now()
		if env, err = build(); err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return env, times, nil
}

var workloads = map[string]func(context.Context, options) (*outcome, error){
	"browse":  runBrowse,
	"analyst": runQueriesWorkload,
	"ingest":  runQueriesWorkload,
	"scatter": runQueriesWorkload,
}

func main() {
	workload := flag.String("workload", "", "browse, analyst, ingest or scatter")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if workloads[*workload] == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload browse|analyst|ingest|scatter --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	tmp := os.Getenv("TMPDIR")
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		sz:       fullSizes,
		tmp:      tmp,
		spanFile: ".bench_build/trace/" + *workload + ".tsv",
	}
	out, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	info, _ := json.Marshal(out.info)
	fmt.Printf("run %s\n", info)
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	line, err := json.Marshal(out.rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.rep.Correct {
		os.Exit(1)
	}
}

// run executes one workload and completes its report.
func run(ctx context.Context, o options) (*outcome, error) {
	out, err := workloads[o.workload](ctx, o)
	if err != nil {
		return nil, err
	}
	out.rep.Attempted = out.tally.attempted
	out.rep.Failed = out.tally.failed + out.tally.shed
	out.rep.Correct = len(out.errs) == 0 && out.tally.bad() == 0 && out.tally.attempted > 0
	out.info["attempted"], out.info["failed"], out.info["shed"], out.info["wrong"] =
		out.tally.attempted, out.tally.failed, out.tally.shed, out.tally.wrong
	return out, nil
}

// outcome accumulates one run's report, its run record and any failed
// checks.
type outcome struct {
	o     options
	rep   report
	tally tally
	info  map[string]any
	errs  []string
}

func newOutcome(o options) *outcome {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return &outcome{
		o:   o,
		rep: report{Metrics: map[string]metric{}},
		info: map[string]any{
			"workload": o.workload, "seed": o.seed, "seconds": o.seconds.Seconds(), "trace": o.trace,
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit,
		},
	}
}

func (o *outcome) fail(err error) { o.errs = append(o.errs, err.Error()) }

// endToEnd fills the untraced metrics. Latencies and the rate are
// over every completed user operation of the window, summarized by
// sub-windows (see summarize); bytesPerOp is the encoded reply size
// per operation.
func (o *outcome) endToEnd(setupS []float64, w *phaseRec, window time.Duration, bytesPerOp, heap float64) {
	s := summarize(w.all, w.at, window)
	m := o.rep.Metrics
	m["setup_s"] = metric{median(setupS), "s"}
	m["heap_mb"] = metric{heap, "MB"}
	m["success_rate"] = metric{1 - ratio(float64(o.tally.bad()), float64(o.tally.attempted)), "ratio"}
	m["p50_ms"] = metric{ms(s.p50), "ms"}
	m["p99_ms"] = metric{ms(s.p99), "ms"}
	m["ops_per_s"] = metric{s.rate, "1/s"}
	m["bytes_down_per_op"] = metric{bytesPerOp, "bytes"}
	o.info["samples"] = map[string]any{
		"setup_s": len(setupS), "ops": len(w.all), "p50_ms_per_slice": len(w.all) / timeSlices,
		"p99_ms_per_chunk": s.chunk, "success_rate": o.tally.attempted, "bytes_down_per_op": len(w.all), "heap_mb": 1,
	}
	o.info["sub_windows"] = map[string]any{"p50_ms": s.p50s, "ops_per_s": s.rates, "p99_ms": s.p99s, "setup_s": setupS}
}

// perLayer lists every per-layer metric and its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"mobile.viewport_us", "us"}, {"mobile.diff_us", "us"}, {"mobile.encode_us", "us"}, {"mobile.decode_us", "us"},
	{"mobile.reply_bytes", "bytes"}, {"mobile.nodes_shipped", "count"},
	{"core.open_subtree_us", "us"}, {"core.rows_per_shipped_node", "ratio"}, {"core.prefetch_us", "us"},
	{"core.prefetched_per_interaction", "count"},
	{"core.query_us.point", "us"}, {"core.query_us.subtree", "us"}, {"core.query_us.scan", "us"},
	{"core.stmt_cache_hit_ratio.point", "ratio"}, {"core.stmt_cache_hit_ratio.subtree", "ratio"},
	{"core.stmt_cache_hit_ratio.scan", "ratio"}, {"core.overlay_read_share", "ratio"}, {"core.build_s", "s"},
	{"cache.hit_ratio", "ratio"}, {"cache.subsumed_hit_share", "ratio"}, {"cache.evictions", "count"},
	{"cache.bytes_cached", "bytes"},
	{"admission.admitted", "count"}, {"admission.shed", "count"}, {"admission.queued_max", "count"},
	{"query.parse_us", "us"}, {"query.plan_us", "us"}, {"query.exec_us", "us"},
	{"query.rows_examined_per_row_returned", "ratio"}, {"query.batches_per_query", "count"},
	{"store.pin_us", "us"}, {"store.lookup_us", "us"}, {"store.scan_ns_per_row", "ns"}, {"store.gather_ns_per_row", "ns"},
	{"store.commit_us", "us"}, {"store.wal_bytes_per_commit", "bytes"}, {"store.dead_versions", "count"},
	{"store.pinned_versions", "count"}, {"store.active_snapshots", "count"},
	{"integrate.import_s", "s"},
	{"shard.query_us", "us"}, {"shard.fanout", "count"}, {"shard.pruned_share", "ratio"},
	{"replica.max_served_lag", "count"}, {"replica.promotions", "count"},
	{"load.lateness_p99_ms", "ms"}, {"load.commit_p50_ms", "ms"}, {"load.commit_p99_ms", "ms"},
	{"self.bench_us", "us"}, {"self.mobile_us", "us"}, {"self.core_us", "us"}, {"self.query_us", "us"},
	{"self.store_us", "us"}, {"self.shard_us", "us"},
	{"trace.overhead_pct", "%"}, {"trace.spans", "count"},
}

// layerMetrics returns the report's metric map preset to 0 for every
// per-layer metric.
func (o *outcome) layerMetrics() map[string]metric {
	for _, l := range perLayer {
		o.rep.Metrics[l.name] = metric{0, l.unit}
	}
	return o.rep.Metrics
}

// traceMetrics fills the tracing overhead (traced against untraced
// slices), each layer's self time per replayed op, and writes every
// span out.
func (o *outcome) traceMetrics(m map[string]metric, untraced, traced *phaseRec, replay, all spanSet) {
	// Per class, so that a shift in the class mix between the slices
	// (whose op latencies differ by orders of magnitude) is not read as
	// tracing cost: the classes' median changes, weighted by op count.
	var base, diff float64
	for c, plain := range untraced.class {
		withSpans := traced.class[c]
		if len(plain) == 0 || len(withSpans) == 0 {
			continue
		}
		n := float64(len(plain) + len(withSpans))
		mu := float64(plain.quantile(0.5))
		base += n * mu
		diff += n * (float64(withSpans.quantile(0.5)) - mu)
	}
	m["trace.overhead_pct"] = metric{100 * ratio(diff, base), "%"}
	m["trace.spans"] = metric{float64(all.count()), "count"}
	self, ops := replay.selfTime("bench.replay")
	for _, layer := range []string{"bench", "mobile", "core", "query", "store", "shard"} {
		m["self."+layer+"_us"] = metric{us(self[layer]) / float64(max(ops, 1)), "us"}
	}
	o.info["samples"] = map[string]any{"untraced_ops": len(untraced.all), "traced_ops": len(traced.all), "replayed_ops": ops}
	o.info["span_names"] = all.names()
	if o.o.spanFile != "" {
		if err := all.write(o.o.spanFile); err != nil {
			o.fail(fmt.Errorf("writing spans: %w", err))
		} else {
			o.info["span_file"] = o.o.spanFile
		}
	}
}

func cacheMetrics(m map[string]metric, before, after cache.Stats) {
	hits := after.Hits - before.Hits
	lookups := hits + after.Misses - before.Misses
	m["cache.hit_ratio"] = metric{ratio(float64(hits), float64(lookups)), "ratio"}
	m["cache.subsumed_hit_share"] = metric{ratio(float64(after.SubsumedHits-before.SubsumedHits), float64(hits)), "ratio"}
	m["cache.evictions"] = metric{float64(after.Evictions - before.Evictions), "count"}
	m["cache.bytes_cached"] = metric{float64(after.BytesCached), "bytes"}
}

func admissionMetrics(m map[string]metric, before, after admission.Stats, queuedMax int) {
	shed := func(s admission.Stats) int64 { return s.ShedQueueFull + s.ShedDeadline + s.ShedDraining + s.Expired }
	m["admission.admitted"] = metric{float64(after.Admitted - before.Admitted), "count"}
	m["admission.shed"] = metric{float64(shed(after) - shed(before)), "count"}
	m["admission.queued_max"] = metric{float64(queuedMax), "count"}
}

// each runs fn once per element, each on its own goroutine, and waits
// for all of them.
func each[T any](xs []T, fn func(T)) {
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func(x T) {
			defer wg.Done()
			fn(x)
		}(x)
	}
	wg.Wait()
}

// measured is one run's timed window. An untraced run measures it in
// one slice; a traced run alternates untraced and traced slices, the
// traced ones recording spans into tracers (one per client).
type measured struct {
	all, untraced, traced *phaseRec
	tracers               []*tracer
}

// measure runs the window through slice, which runs every client
// closed-loop for the given time, with spans when given tracers.
func measure(o options, clients int, base time.Time, ops *atomic.Int64, slice func(time.Duration, []*tracer) *phaseRec) measured {
	if !o.trace {
		return measured{all: slice(o.seconds, nil)}
	}
	w := measured{untraced: newPhaseRec(time.Now()), traced: newPhaseRec(time.Now())}
	for i := 0; i < clients; i++ {
		w.tracers = append(w.tracers, newTracer(base, ops))
	}
	for i := 0; i < traceSlices; i++ {
		if i%2 == 0 {
			w.untraced.merge(slice(o.seconds/traceSlices, nil))
		} else {
			w.traced.merge(slice(o.seconds/traceSlices, w.tracers))
		}
	}
	w.all = newPhaseRec(time.Now())
	w.all.merge(w.untraced)
	w.all.merge(w.traced)
	return w
}

// settle waits, up to 5 s, until background work the window started
// (the server's asynchronous prefetches) has finished and no more
// goroutines run than before the window, and returns how long that
// took.
func settle(before int) time.Duration {
	t0 := time.Now()
	for runtime.NumGoroutine() > before && time.Since(t0) < 5*time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	return time.Since(t0)
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
