package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// appendBlocks executes n single-transaction batches against app and
// journals them through d, mirroring what the execution engine does, and
// waits until every block is acked durable (see appendBlocksAsync).
func appendBlocks(t *testing.T, d *DurableLedger, app *ycsb.Store, start, n int) {
	t.Helper()
	acked, wait := appendBlocksAsync(t, d, app, start, n)
	wait()
	if got := len(acked()); got != n {
		t.Fatalf("%d of %d blocks acked durable", got, n)
	}
}

func openStore(t *testing.T, dir string) *DurableLedger {
	t.Helper()
	d, err := Open(dir, Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDurableLedgerReopenResumesChain(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 7)
	head := d.Memory().Head()
	d.Close()

	d2 := openStore(t, dir)
	if d2.Memory().Height() != 7 {
		t.Fatalf("reopened at height %d, want 7", d2.Memory().Height())
	}
	if d2.Memory().Head().Hash() != head.Hash() {
		t.Fatal("head hash changed across reopen")
	}
	if err := d2.Memory().Verify(); err != nil {
		t.Fatalf("replayed chain fails audit: %v", err)
	}
	// The journal keeps accepting blocks after a restart.
	app2 := ycsb.NewStore(64)
	if _, err := d2.RestoreApp(app2); err != nil {
		t.Fatal(err)
	}
	appendBlocks(t, d2, app2, 7, 3)
	if d2.Memory().Height() != 10 {
		t.Fatalf("height %d after post-restart appends, want 10", d2.Memory().Height())
	}
}

func TestRestoreAppRebuildsStateWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 5)
	want := app.StateDigest()
	d.Close()

	d2 := openStore(t, dir)
	fresh := ycsb.NewStore(64)
	txns, err := d2.RestoreApp(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if txns != 5 {
		t.Fatalf("restored %d txns, want 5", txns)
	}
	if fresh.StateDigest() != want {
		t.Fatal("full-replay restore diverged from pre-crash state")
	}
}

func TestRestoreAppResumesFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 4)
	if err := d.Snapshot(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	appendBlocks(t, d, app, 4, 3)
	want := app.StateDigest()
	d.Close()

	d2 := openStore(t, dir)
	snap := d2.LatestSnapshot()
	if snap == nil || snap.Height != 4 {
		t.Fatalf("snapshot not recovered: %+v", snap)
	}
	fresh := ycsb.NewStore(64)
	if _, err := d2.RestoreApp(fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.StateDigest() != want {
		t.Fatal("snapshot-based restore diverged from pre-crash state")
	}
}

func TestTornWALTailIsDroppedOnReopen(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 6)
	d.Close()

	// Crash mid-append: the last block's record loses its final bytes.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.wal"))
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, _ := os.Stat(last)
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	d2 := openStore(t, dir)
	if d2.Memory().Height() != 5 {
		t.Fatalf("height %d after torn tail, want 5", d2.Memory().Height())
	}
	if d2.WAL().Truncated() != 1 {
		t.Fatalf("Truncated() = %d, want 1", d2.WAL().Truncated())
	}
	if err := d2.Memory().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBitFlippedWALRecordRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 6)
	d.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.wal"))
	sort.Strings(segs)
	data, _ := os.ReadFile(segs[0])
	// Flip one bit inside block 2's batch payload — mid-segment, with
	// intact records after it, so it can never pass as a torn tail.
	i := bytesIndex(data, "v2")
	if i < 0 {
		t.Fatal("block 2 payload not found")
	}
	data[i] ^= 0x20
	os.WriteFile(segs[0], data, 0o644)

	if _, err := Open(dir, Options{Sync: wal.SyncNone}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open over bit-flipped record: %v, want wal.ErrCorrupt", err)
	}
}

func TestSnapshotAheadOfWALRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 3)
	if err := d.Snapshot(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Lose the WAL (e.g. the operator restored the wrong volume): the
	// checkpoint now claims a height the journal never reached.
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: wal.SyncNone}); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("open with snapshot ahead of WAL: %v, want ErrSnapshotMismatch", err)
	}
}

func TestForeignSnapshotRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 3)
	d.Close()

	// Plant a checkpoint from a DIFFERENT chain at a height the WAL does
	// reach: heights agree, hashes must not.
	snaps, err := OpenSnapshots(filepath.Join(dir, "checkpoints"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := snaps.Save(&Snapshot{
		Height:      2,
		HeadHash:    types.Hash([]byte("some other replica's block")),
		StateDigest: types.Hash([]byte("some other replica's state")),
		AppState:    ycsb.NewStore(64).Snapshot(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: wal.SyncNone}); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("open with foreign snapshot: %v, want ErrSnapshotMismatch", err)
	}
}

func TestSnapshotStoreRetentionAndFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSnapshots(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(1); h <= 5; h++ {
		if err := s.Save(&Snapshot{Height: h, AppState: []byte{byte(h)}}); err != nil {
			t.Fatal(err)
		}
	}
	hs, _ := s.heights()
	if len(hs) != 2 || hs[0] != 4 || hs[1] != 5 {
		t.Fatalf("retention kept %v, want [4 5]", hs)
	}
	// Bitrot in the newest generation: Latest falls back to the older
	// one (the WAL covers the difference).
	data, _ := os.ReadFile(s.path(5))
	data[len(data)-1] ^= 0xff
	os.WriteFile(s.path(5), data, 0o644)
	snap, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Height != 4 {
		t.Fatalf("latest after bitrot = %+v, want height 4", snap)
	}
}

func bytesIndex(data []byte, marker string) int { return bytes.Index(data, []byte(marker)) }

func TestSnapshotRoundTripsAppState(t *testing.T) {
	app := ycsb.NewStore(32)
	app.Execute(types.Transaction{Client: 1, Seq: 1, Op: ycsb.EncodeWrite(3, []byte("x"))})
	restored := ycsb.NewStore(32)
	if err := restored.Restore(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if restored.StateDigest() != app.StateDigest() {
		t.Fatal("ycsb snapshot round trip diverged")
	}
}
