package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/integrate"
	"drugtree/internal/store"
)

// writer is the ingest workload's open-loop churn generator: on a
// fixed schedule it commits one batch of k deletes plus k inserts to
// activities through store.DB.CommitDeltas, the inserts keyed at
// leaves drawn zipf-skewed (the T14 churn shape). Each commit is
// timed from its scheduled start, so a stall also delays the batches
// queued behind it; how late the generator starts each batch is
// reported separately.
type writer struct {
	db       *store.DB
	tbl      *store.Table
	rng      *rand.Rand
	zipf     *rand.Zipf
	leaves   []string // zipf rank → leaf, in a seeded order
	live     []int64  // row ids of the current activities rows
	k        int
	interval time.Duration
	walPath  string

	tr *tracer

	batches  int64
	inserted int64
	deleted  int64
	fromDue  samples // commit latency from its scheduled start
	late     samples // start time minus scheduled start
	dead     []float64
	pinned   []float64
	active   []float64
	err      error

	stop chan struct{}
	done sync.WaitGroup
}

func newWriter(db *store.DB, leaves []string, sz sizes, seed int64) (*writer, error) {
	tbl, err := db.Table(integrate.TableActivities)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	order := append([]string(nil), leaves...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	w := &writer{
		db: db, tbl: tbl, rng: rng, leaves: order, k: sz.churnK,
		zipf:     rand.NewZipf(rng, 1.2, 1, uint64(len(order)-1)),
		interval: time.Duration(float64(time.Second) / sz.batchesPerSec),
		walPath:  filepath.Join(db.Dir(), "wal.dtl"),
	}
	snap := db.PinSnapshot()
	tv, err := snap.View(integrate.TableActivities)
	if err == nil {
		tv.Scan(func(id int64, _ store.Row) bool {
			w.live = append(w.live, id)
			return true
		})
	}
	snap.Release()
	return w, err
}

func (w *writer) walSize() int64 {
	fi, err := os.Stat(w.walPath)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// start launches the writer goroutine; stopAndWait ends it.
func (w *writer) start() {
	w.stop = make(chan struct{})
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		w.loop()
	}()
}

func (w *writer) stopAndWait() error {
	close(w.stop)
	w.done.Wait()
	return w.err
}

func (w *writer) loop() {
	begin := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := int64(0); ; i++ {
		due := begin.Add(time.Duration(i) * w.interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-w.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-w.stop:
				return
			default:
			}
		}
		w.late = append(w.late, time.Since(due))
		if err := w.commit(due); err != nil {
			w.err = err
			return
		}
		if w.tr != nil {
			w.dead = append(w.dead, float64(w.db.DeadVersions()))
			w.pinned = append(w.pinned, float64(w.db.PinnedVersions()))
			w.active = append(w.active, float64(w.db.ActiveSnapshots()))
		}
	}
}

// commit applies one churn batch, records its latency from due, and
// tracks the ids it inserted.
func (w *writer) commit(due time.Time) error {
	delta := store.TableDelta{Table: integrate.TableActivities}
	for i := 0; i < w.k && len(w.live) > 0; i++ {
		j := w.rng.Intn(len(w.live))
		delta.DeleteIDs = append(delta.DeleteIDs, w.live[j])
		w.live[j] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
	}
	keys := make([]string, w.k)
	for i := range keys {
		keys[i] = fmt.Sprintf("LC%07d-%d", w.batches, i)
		delta.Inserts = append(delta.Inserts, store.Row{
			store.StringValue(w.leaves[w.zipf.Uint64()]),
			store.StringValue(keys[i]),
			store.FloatValue(6 + w.rng.NormFloat64()*1.5),
			store.StringValue("churn"),
		})
	}
	op := w.tr.newOp()
	h := w.tr.begin(op, -1, "store.commit")
	err := w.db.CommitDeltas([]store.TableDelta{delta})
	w.tr.end(h)
	w.fromDue = append(w.fromDue, time.Since(due))
	if err != nil {
		return fmt.Errorf("commit batch %d: %w", w.batches, err)
	}
	w.batches++
	w.deleted += int64(len(delta.DeleteIDs))
	w.inserted += int64(len(delta.Inserts))
	for _, key := range keys {
		ids, err := w.tbl.LookupEqual("ligand_id", store.StringValue(key))
		if err != nil || len(ids) != 1 {
			return fmt.Errorf("batch %d: inserted row %s not found once (%v)", w.batches, key, err)
		}
		w.live = append(w.live, ids[0])
	}
	return nil
}

// ingestFinalCheck verifies the store once the writer has stopped:
// COUNT(*) matches the applied deltas and the incrementally
// maintained overlay is bit-identical to a full recompute.
func ingestFinalCheck(ctx context.Context, eng *core.Engine, initial int64, w *writer) error {
	res, err := eng.Query(ctx, "SELECT COUNT(*) FROM activities")
	if err != nil {
		return err
	}
	want := initial + w.inserted - w.deleted
	if got := res.Rows[0][0].I; got != want || got != int64(len(w.live)) {
		return fmt.Errorf("COUNT(*) = %d after %d batches, deltas imply %d (%d live ids tracked)", got, w.batches, want, len(w.live))
	}
	snap := eng.DB().PinSnapshot()
	defer snap.Release()
	rebuilt, err := core.RebuildActivityOverlay(snap, eng.Tree())
	if err != nil {
		return err
	}
	live := eng.Overlay()
	if live.Version() != rebuilt.Version() {
		return fmt.Errorf("live overlay at version %d, recompute at %d", live.Version(), rebuilt.Version())
	}
	for p := 0; p < live.Nodes(); p++ {
		a, b := live.Agg(p), rebuilt.Agg(p)
		if a.Rows != b.Rows || a.Count != b.Count || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
			return fmt.Errorf("overlay differs from recompute at preorder %d: %+v vs %+v", p, a, b)
		}
	}
	return nil
}
