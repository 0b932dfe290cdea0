package store

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// SnapshotHandle pins a consistent point-in-time image of every table
// in the database. While held, readers going through the handle's
// TableViews see exactly the commit versions current at pin time —
// concurrent writers keep committing without blocking them, and
// CommitDeltas publishes multi-table batches all-or-nothing with
// respect to the pin. Release drops the pins; superseded row versions
// are garbage-collected once no handle can reach them. Release is
// idempotent and must be called on every acquired handle (the
// snapcheck lint rule enforces a defer or an explicit ownership
// transfer on all paths).
type SnapshotHandle struct {
	db       *DB
	views    map[string]*TableView
	released atomic.Bool
}

// PinSnapshot pins the current commit version of every table and
// returns the handle. The pin runs under the database read lock, so it
// is atomic with respect to CommitDeltas: a concurrent multi-table
// publish is either fully visible or fully invisible to the snapshot.
func (db *DB) PinSnapshot() *SnapshotHandle {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := &SnapshotHandle{db: db, views: make(map[string]*TableView, len(db.tables))}
	for name, t := range db.tables {
		s.views[name] = &TableView{t: t, v: t.pin()}
	}
	db.snapCount.Add(1)
	return s
}

// ActiveSnapshots reports how many pinned snapshots are outstanding —
// zero after every acquirer has released (the T14 leak gate).
func (db *DB) ActiveSnapshots() int64 {
	return db.snapCount.Load()
}

// DeadVersions sums superseded row versions awaiting GC across all
// tables. With no snapshots pinned it settles to zero.
func (db *DB) DeadVersions() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += t.DeadVersions()
	}
	return n
}

// PinnedVersions sums distinct pinned commit versions across all
// tables.
func (db *DB) PinnedVersions() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, t := range db.tables {
		n += t.PinnedVersions()
	}
	return n
}

// Release unpins every table version the handle holds. Idempotent.
func (s *SnapshotHandle) Release() {
	if s == nil || s.released.Swap(true) {
		return
	}
	for _, tv := range s.views {
		tv.t.unpin(tv.v)
	}
	s.db.snapCount.Add(-1)
}

// View returns the pinned view of the named table. Tables created
// after the pin are not part of the snapshot.
func (s *SnapshotHandle) View(name string) (*TableView, error) {
	tv, ok := s.views[name]
	if !ok {
		return nil, fmt.Errorf("store: no table %q in snapshot", name)
	}
	return tv, nil
}

// Version returns the pinned commit version of the named table.
func (s *SnapshotHandle) Version(name string) (int64, bool) {
	tv, ok := s.views[name]
	if !ok {
		return 0, false
	}
	return tv.v, true
}

// Versions returns the pinned per-table commit versions.
func (s *SnapshotHandle) Versions() map[string]int64 {
	out := make(map[string]int64, len(s.views))
	for name, tv := range s.views {
		out[name] = tv.v
	}
	return out
}

// VersionKey renders the snapshot's per-table versions as a canonical
// sorted string — the statement-cache key component that replaces the
// summed dbVersion, so a write to one table no longer invalidates
// cached plans that never read it.
func VersionKey(versions map[string]int64) string {
	names := make([]string, 0, len(versions))
	for n := range versions {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d;", n, versions[n])
	}
	return b.String()
}

// TableView reads one table at a fixed commit version. A view with a
// negative version is unpinned and follows the latest commit on every
// read (the path engines without a snapshot catalog use).
type TableView struct {
	t *Table
	v int64
}

// LatestView returns an unpinned view that follows the table's latest
// commit version on every read.
func (t *Table) LatestView() *TableView { return &TableView{t: t, v: -1} }

// Table exposes the underlying table for schema and index
// introspection (planning never reads rows through it).
func (tv *TableView) Table() *Table { return tv.t }

// Version returns the pinned commit version, or the current one for an
// unpinned view.
func (tv *TableView) Version() int64 {
	if tv.v < 0 {
		return tv.t.Version()
	}
	return tv.v
}

// Pinned reports whether the view is frozen at a pinned version.
func (tv *TableView) Pinned() bool { return tv.v >= 0 }

// Len returns the number of rows visible in the view.
func (tv *TableView) Len() int {
	if tv.v < 0 {
		return tv.t.Len()
	}
	n := 0
	tv.t.ScanAt(tv.v, func(int64, Row) bool { n++; return true })
	return n
}

// Scan calls fn for every visible row until fn returns false.
func (tv *TableView) Scan(fn func(id int64, r Row) bool) {
	if tv.v < 0 {
		tv.t.Scan(fn)
		return
	}
	tv.t.ScanAt(tv.v, fn)
}

// Snapshot returns shared immutable references to every visible row.
func (tv *TableView) Snapshot() []Row {
	if tv.v < 0 {
		return tv.t.Snapshot()
	}
	return tv.t.SnapshotAt(tv.v)
}

// Get returns the visible row with the given ID.
func (tv *TableView) Get(id int64) (Row, bool) {
	if tv.v < 0 {
		return tv.t.Get(id)
	}
	return tv.t.GetAt(tv.v, id)
}

// Rows returns copies of the visible rows with the given IDs.
func (tv *TableView) Rows(ids []int64) []Row {
	if tv.v < 0 {
		return tv.t.Rows(ids)
	}
	return tv.t.RowsAt(tv.v, ids)
}

// LookupEqual returns the IDs of visible rows whose column equals v.
func (tv *TableView) LookupEqual(column string, v Value) ([]int64, error) {
	if tv.v < 0 {
		return tv.t.LookupEqual(column, v)
	}
	return tv.t.LookupEqualAt(tv.v, column, v)
}

// LookupIn returns the IDs of visible rows whose column equals any of
// vals, sorted ascending.
func (tv *TableView) LookupIn(column string, vals []Value) ([]int64, error) {
	if tv.v < 0 {
		return tv.t.LookupIn(column, vals)
	}
	return tv.t.LookupInAt(tv.v, column, vals)
}

// LookupRange returns the IDs of visible rows with lo ≤ column ≤ hi.
func (tv *TableView) LookupRange(column string, lo, hi *Value) ([]int64, error) {
	if tv.v < 0 {
		return tv.t.LookupRange(column, lo, hi)
	}
	return tv.t.LookupRangeAt(tv.v, column, lo, hi)
}

// GatherCols materializes the visible rows with the given IDs into one
// columnar batch.
func (tv *TableView) GatherCols(ids []int64) *ColBatch {
	if tv.v < 0 {
		return tv.t.GatherCols(ids)
	}
	return tv.t.GatherColsAt(tv.v, ids)
}

// ScanBatch streams the visible rows as columnar batches.
func (tv *TableView) ScanBatch(batchRows int, fn func(*ColBatch) bool) {
	if tv.v < 0 {
		tv.t.ScanBatch(batchRows, fn)
		return
	}
	tv.t.ScanBatchAt(tv.v, batchRows, fn)
}
