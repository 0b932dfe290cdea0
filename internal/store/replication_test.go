package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func replTestDB(t *testing.T) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := MustSchema(Column{Name: "id", Kind: KindInt}, Column{Name: "v", Kind: KindString})
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	return db, dir
}

func replInsert(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.Insert("t", Row{IntValue(int64(i)), StringValue("v")}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALSeqMonotonic pins the sequencing contract: every mutation
// advances WALSeq by one, a checkpoint preserves the counter (the WAL
// truncates but seq is for the database's lifetime), and a reopen
// restores it from the snapshot trailer plus surviving WAL records.
func TestWALSeqMonotonic(t *testing.T) {
	db, dir := replTestDB(t)
	if got := db.WALSeq(); got != 1 { // the create-table record
		t.Fatalf("WALSeq after create = %d, want 1", got)
	}
	replInsert(t, db, 5)
	if got := db.WALSeq(); got != 6 {
		t.Fatalf("WALSeq after 5 inserts = %d, want 6", got)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.WALSeq(); got != 6 {
		t.Fatalf("WALSeq after checkpoint = %d, want 6 (checkpoint must not reset seq)", got)
	}
	replInsert(t, db, 2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.WALSeq(); got != 8 {
		t.Fatalf("WALSeq after reopen = %d, want 8", got)
	}
	replInsert(t, db2, 1)
	if got := db2.WALSeq(); got != 9 {
		t.Fatalf("WALSeq after post-reopen insert = %d, want 9", got)
	}
}

// TestScanWALStreamsAndFollowerApplies ships a leader's WAL to a
// follower seeded from an empty store: the follower applies every
// record via ApplyReplicated and must converge to identical contents
// with an identical WALSeq (its own log mirrors the stream).
func TestScanWALStreamsAndFollowerApplies(t *testing.T) {
	leader, _ := replTestDB(t)
	replInsert(t, leader, 10)

	follower, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	err = leader.ScanWAL(follower.WALSeq(), func(seq int64, body []byte) error {
		return follower.ApplyReplicated(seq, body)
	})
	if err != nil {
		t.Fatal(err)
	}
	if follower.WALSeq() != leader.WALSeq() {
		t.Fatalf("follower seq %d != leader seq %d", follower.WALSeq(), leader.WALSeq())
	}
	ft, err := follower.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 10 {
		t.Fatalf("follower has %d rows, want 10", ft.Len())
	}

	// Incremental tail: new leader writes ship from the follower's
	// current seq without re-sending the prefix.
	replInsert(t, leader, 3)
	var shipped int
	err = leader.ScanWAL(follower.WALSeq(), func(seq int64, body []byte) error {
		shipped++
		return follower.ApplyReplicated(seq, body)
	})
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 3 {
		t.Fatalf("incremental scan shipped %d records, want 3", shipped)
	}
	if ft.Len() != 13 {
		t.Fatalf("follower has %d rows after tail, want 13", ft.Len())
	}
}

// TestScanWALGapAfterCheckpoint proves a checkpoint-truncated WAL is
// reported as ErrWALGap to a subscriber whose position predates the
// truncation — the signal to re-seed from a snapshot.
func TestScanWALGapAfterCheckpoint(t *testing.T) {
	db, _ := replTestDB(t)
	replInsert(t, db, 5)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Position 2 is inside the truncated range.
	err := db.ScanWAL(2, func(int64, []byte) error { return nil })
	if !errors.Is(err, ErrWALGap) {
		t.Fatalf("scan from truncated position: err = %v, want ErrWALGap", err)
	}
	// From the current frontier there is nothing to ship and no gap.
	if err := db.ScanWAL(db.WALSeq(), func(int64, []byte) error { return nil }); err != nil {
		t.Fatalf("scan from frontier after checkpoint: %v", err)
	}
	// Records written after the checkpoint stream normally.
	replInsert(t, db, 2)
	var got []int64
	if err := db.ScanWAL(6, func(seq int64, _ []byte) error {
		got = append(got, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("post-checkpoint scan returned seqs %v, want [7 8]", got)
	}
}

// TestScanWALCorruptInterior flips a bit in a fully-present interior
// record: ScanWAL must fail with ErrWALCorrupt (replication cannot
// trust the stream) even though crash replay would just stop there.
func TestScanWALCorruptInterior(t *testing.T) {
	db, dir := replTestDB(t)
	replInsert(t, db, 4)
	sizeBefore := walSize(t, dir)
	replInsert(t, db, 1) // the record to damage
	sizeAfter := walSize(t, dir)
	replInsert(t, db, 2) // records after the damage

	walPath := filepath.Join(dir, "wal.dtl")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[sizeBefore+3] ^= 0x40 // inside the damaged record's payload
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_ = sizeAfter

	var seqs []int64
	err = db.ScanWAL(0, func(seq int64, _ []byte) error {
		seqs = append(seqs, seq)
		return nil
	})
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("scan over bit-flipped record: err = %v, want ErrWALCorrupt", err)
	}
	if len(seqs) != 5 { // create-table + 4 intact inserts
		t.Fatalf("delivered %d records before corruption, want 5", len(seqs))
	}
}

// TestApplyReplicatedRejectsGap pins that a follower refuses a record
// that is not the immediate successor of its applied stream.
func TestApplyReplicatedRejectsGap(t *testing.T) {
	leader, _ := replTestDB(t)
	replInsert(t, leader, 3)
	var records [][]byte
	var seqs []int64
	if err := leader.ScanWAL(0, func(seq int64, body []byte) error {
		records = append(records, append([]byte(nil), body...))
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	follower, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.ApplyReplicated(seqs[0], records[0]); err != nil {
		t.Fatal(err)
	}
	// Skipping seq 2 must be refused.
	err = follower.ApplyReplicated(seqs[2], records[2])
	if !errors.Is(err, ErrWALGap) {
		t.Fatalf("out-of-order apply: err = %v, want ErrWALGap", err)
	}
	// Replays of already-applied seqs are refused too (idempotence is
	// the shipper's job; the store only accepts the successor).
	err = follower.ApplyReplicated(seqs[0], records[0])
	if !errors.Is(err, ErrWALGap) {
		t.Fatalf("duplicate apply: err = %v, want ErrWALGap", err)
	}
}

// TestWriteSnapshotToSeeds streams a leader snapshot into a fresh
// directory and opens it: the seeded store must hold the same rows and
// resume the sequence stream exactly where the snapshot left it.
func TestWriteSnapshotToSeeds(t *testing.T) {
	leader, _ := replTestDB(t)
	replInsert(t, leader, 7)

	seedDir := t.TempDir()
	f, err := os.Create(filepath.Join(seedDir, "snapshot.dts"))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := leader.WriteSnapshotTo(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if seq != leader.WALSeq() {
		t.Fatalf("snapshot seq %d != leader seq %d", seq, leader.WALSeq())
	}

	seeded, err := Open(seedDir)
	if err != nil {
		t.Fatal(err)
	}
	defer seeded.Close()
	if seeded.WALSeq() != seq {
		t.Fatalf("seeded store seq %d, want %d", seeded.WALSeq(), seq)
	}
	st, err := seeded.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 7 {
		t.Fatalf("seeded store has %d rows, want 7", st.Len())
	}
	// The seeded store can consume the tail directly.
	replInsert(t, leader, 2)
	if err := leader.ScanWAL(seeded.WALSeq(), func(s int64, b []byte) error {
		return seeded.ApplyReplicated(s, b)
	}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 9 || seeded.WALSeq() != leader.WALSeq() {
		t.Fatalf("seeded tail-catchup: rows=%d seq=%d, leader seq=%d", st.Len(), seeded.WALSeq(), leader.WALSeq())
	}
}

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "wal.dtl"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestApplyReplicatedBatchAtomic pins that a follower applies a batch
// record all-or-nothing: when a later table in the batch is unknown or
// carries an insert that fails the schema check, the earlier tables
// stay untouched, the follower's WAL does not advance, and a valid
// record at the same seq still applies and survives a reopen.
func TestApplyReplicatedBatchAtomic(t *testing.T) {
	dir := t.TempDir()
	follower, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { follower.Close() }()
	schema := MustSchema(Column{Name: "id", Kind: KindInt})
	for _, name := range []string{"a", "b"} {
		if _, err := follower.CreateTable(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	ta, err := follower.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	seq := follower.WALSeq() + 1
	verA := ta.Version()
	good := Row{IntValue(1)}
	for _, tc := range []struct {
		name   string
		second walTableDelta
	}{
		{"unknown table", walTableDelta{table: "nosuch", inserts: []Row{good}}},
		{"schema mismatch", walTableDelta{table: "b", inserts: []Row{{StringValue("x")}}}},
	} {
		body := encodeWALBatch([]walTableDelta{{table: "a", inserts: []Row{good}}, tc.second})
		if err := follower.ApplyReplicated(seq, body); err == nil {
			t.Fatalf("%s: bad batch applied without error", tc.name)
		}
		if ta.Len() != 0 || ta.Version() != verA {
			t.Fatalf("%s: table a changed by a rejected batch: len %d, version %d (want 0, %d)",
				tc.name, ta.Len(), ta.Version(), verA)
		}
		if got := follower.WALSeq(); got != seq-1 {
			t.Fatalf("%s: WALSeq = %d after a rejected batch, want %d", tc.name, got, seq-1)
		}
	}

	body := encodeWALBatch([]walTableDelta{
		{table: "a", inserts: []Row{good}},
		{table: "b", inserts: []Row{{IntValue(2)}}},
	})
	if err := follower.ApplyReplicated(seq, body); err != nil {
		t.Fatalf("valid batch at seq %d: %v", seq, err)
	}
	if ta.Len() != 1 || ta.Version() != verA+1 {
		t.Fatalf("table a after valid batch: len %d, version %d (want 1, %d)", ta.Len(), ta.Version(), verA+1)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		tab, err := follower.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() != 1 {
			t.Fatalf("table %s after reopen: %d rows, want 1", name, tab.Len())
		}
	}
}
