package store

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// buildSourceState builds a donor store with nblocks blocks and a snapshot
// at snapAt, returning the fetched-over-the-wire shape of a state transfer:
// the base snapshot and the block suffix [snapAt, nblocks).
func buildSourceState(t *testing.T, nblocks, snapAt int) (*Snapshot, []*ledger.Block) {
	t.Helper()
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, snapAt)
	if err := d.Snapshot(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	appendBlocks(t, d, app, snapAt, nblocks-snapAt)
	snap := d.LatestSnapshot()
	if snap == nil || snap.Height != uint64(snapAt) {
		t.Fatalf("donor snapshot at %v, want height %d", snap, snapAt)
	}
	var blocks []*ledger.Block
	for h := uint64(snapAt); h < d.Memory().Height(); h++ {
		blocks = append(blocks, d.Memory().Get(h))
	}
	return snap, blocks
}

func TestInstallStateRebasesWipedStore(t *testing.T) {
	snap, blocks := buildSourceState(t, 9, 4)

	dir := t.TempDir()
	d := openStore(t, dir) // wiped replica: empty store
	if err := d.InstallState(snap, blocks); err != nil {
		t.Fatalf("install: %v", err)
	}
	if got := d.Memory().Height(); got != 9 {
		t.Fatalf("installed height %d, want 9", got)
	}
	if d.Memory().Base() != 4 {
		t.Fatalf("base %d, want 4", d.Memory().Base())
	}
	if err := d.Memory().Verify(); err != nil {
		t.Fatalf("installed chain fails audit: %v", err)
	}
	// The application restores from the installed snapshot plus suffix.
	app := ycsb.NewStore(64)
	txns, err := d.RestoreApp(app)
	if err != nil {
		t.Fatalf("restore app: %v", err)
	}
	if txns != 9 {
		t.Fatalf("restored txn count %d, want 9", txns)
	}
	if app.StateDigest() != d.Memory().Head().StateHash {
		t.Fatal("restored app digest does not match the installed head")
	}

	// The installed state must survive (and keep extending across) a
	// reopen: the WAL is rebased, the base snapshot pinned.
	appendBlocks(t, d, app, 9, 2)
	d.Close()
	d2 := openStore(t, dir)
	if got := d2.Memory().Height(); got != 11 {
		t.Fatalf("reopened at height %d, want 11", got)
	}
	if d2.Memory().Base() != 4 {
		t.Fatalf("reopened base %d, want 4", d2.Memory().Base())
	}
	if err := d2.Memory().Verify(); err != nil {
		t.Fatalf("reopened chain fails audit: %v", err)
	}
	if got := d2.Memory().TxnCount(); got != 11 {
		t.Fatalf("reopened txn count %d, want 11", got)
	}
}

// TestInstallStateKeepsCommitHook: the appender an install rebuilds carries
// the commit hook, so the WAL fsync metrics and fsync_stall events keep
// flowing after a state transfer; and the WAL and Appender accessors a
// metrics scrape reads race-free with the install and name the live log
// and appender after it.
func TestInstallStateKeepsCommitHook(t *testing.T) {
	snap, blocks := buildSourceState(t, 9, 4)
	var commits atomic.Int64
	d, err := Open(t.TempDir(), Options{
		Sync:     wal.SyncNone,
		OnCommit: func(int, int64, time.Duration) { commits.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				d.WAL().Stats()
				d.Appender().Stats()
			}
		}
	}()
	err = d.InstallState(snap, blocks)
	close(stop)
	<-scraped
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	app := ycsb.NewStore(64)
	if _, err := d.RestoreApp(app); err != nil {
		t.Fatal(err)
	}
	before := commits.Load()
	appendBlocks(t, d, app, 9, 3)
	if n := commits.Load() - before; n == 0 {
		t.Fatalf("commit hook fired %d times after the install", n)
	}
	if submitted, _ := d.Appender().Stats(); submitted != 3 {
		t.Fatalf("live appender counts %d submissions, want the 3 made after the install", submitted)
	}
}

func TestInstallStateReplacesLaggingPartialStore(t *testing.T) {
	snap, blocks := buildSourceState(t, 9, 6)

	// A replica with SOME history, but less than the snapshot covers: the
	// install replaces its chain wholesale.
	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 3)
	if err := d.InstallState(snap, blocks); err != nil {
		t.Fatalf("install: %v", err)
	}
	if got, base := d.Memory().Height(), d.Memory().Base(); got != 9 || base != 6 {
		t.Fatalf("installed height %d base %d, want 9/6", got, base)
	}
	app2 := ycsb.NewStore(64)
	if _, err := d.RestoreApp(app2); err != nil {
		t.Fatal(err)
	}
	if app2.StateDigest() != d.Memory().Head().StateHash {
		t.Fatal("restored app digest mismatch after replacing partial store")
	}
}

func TestInstallBlocksExtendsChain(t *testing.T) {
	// Donor with 8 blocks; receiver has the first 5 — the lag-behind path
	// fetches only the block range, no snapshot.
	donorDir := t.TempDir()
	donor := openStore(t, donorDir)
	dapp := ycsb.NewStore(64)
	appendBlocks(t, donor, dapp, 0, 8)

	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 5)

	var suffix []*ledger.Block
	for h := uint64(5); h < 8; h++ {
		suffix = append(suffix, donor.Memory().Get(h))
	}
	if err := d.InstallBlocks(suffix); err != nil {
		t.Fatalf("install blocks: %v", err)
	}
	if got := d.Memory().Height(); got != 8 {
		t.Fatalf("height %d, want 8", got)
	}
	if d.Memory().Head().Hash() != donor.Memory().Head().Hash() {
		t.Fatal("catch-up head diverges from donor")
	}
	d.Close()
	d2 := openStore(t, dir)
	if got := d2.Memory().Height(); got != 8 {
		t.Fatalf("reopened height %d, want 8", got)
	}
}

func TestInstallBlocksRefusesWrongHeightOrForeignChain(t *testing.T) {
	donorDir := t.TempDir()
	donor := openStore(t, donorDir)
	dapp := ycsb.NewStore(64)
	appendBlocks(t, donor, dapp, 0, 8)

	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 5)

	// Wrong height: a range that skips a block.
	if err := d.InstallBlocks([]*ledger.Block{donor.Memory().Get(6)}); err == nil {
		t.Fatal("gap in catch-up range accepted")
	}
	// Foreign chain: right height, different history (the donor's block 5
	// does not chain onto THIS replica's block 4 if the prefix differs).
	foreignDir := t.TempDir()
	foreign := openStore(t, foreignDir)
	fapp := ycsb.NewStore(64)
	// Different transactions -> different chain.
	appendBlocks(t, foreign, fapp, 100, 6)
	if err := d.InstallBlocks([]*ledger.Block{foreign.Memory().Get(5)}); err == nil {
		t.Fatal("foreign block accepted into the chain")
	}
	if got := d.Memory().Height(); got != 5 {
		t.Fatalf("failed installs changed the chain: height %d, want 5", got)
	}
}

// TestInstallCrashBeforeCommitKeepsOldState pins the crash-atomicity
// contract on the uncommitted side: a kill after staging but BEFORE the
// commit marker leaves the pre-transfer state authoritative.
func TestInstallCrashBeforeCommitKeepsOldState(t *testing.T) {
	snap, blocks := buildSourceState(t, 9, 4)

	dir := t.TempDir()
	d := openStore(t, dir)
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 3)
	oldHead := d.Memory().Head().Hash()
	d.Close()

	// Simulate the crash point: a fully staged incoming dir, no marker.
	incoming := filepath.Join(dir, incomingDir)
	sw, err := wal.Open(filepath.Join(incoming, walDirName), wal.Options{FirstIndex: snap.Height + 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if _, err := sw.AppendNoSync(ledger.EncodeBlock(blk)); err != nil {
			t.Fatal(err)
		}
	}
	sw.Close()
	ss, err := OpenSnapshots(filepath.Join(incoming, ckpDirName), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Save(snap); err != nil {
		t.Fatal(err)
	}

	d2 := openStore(t, dir)
	if got := d2.Memory().Height(); got != 3 {
		t.Fatalf("uncommitted install changed the state: height %d, want 3", got)
	}
	if d2.Memory().Head().Hash() != oldHead {
		t.Fatal("uncommitted install changed the head")
	}
	if _, err := os.Stat(incoming); !os.IsNotExist(err) {
		t.Fatal("abandoned staging dir not cleared")
	}
	// The replica can retry the whole transfer from here.
	if err := d2.InstallState(snap, blocks); err != nil {
		t.Fatalf("retry install: %v", err)
	}
	if got := d2.Memory().Height(); got != 9 {
		t.Fatalf("retried install height %d, want 9", got)
	}
}

// TestInstallCrashAfterCommitRollsForward pins the committed side: once the
// marker exists, a crash at any later point (including mid-swap) recovers
// to the fully installed state.
func TestInstallCrashAfterCommitRollsForward(t *testing.T) {
	snap, blocks := buildSourceState(t, 9, 4)

	for _, crashMidSwap := range []bool{false, true} {
		dir := t.TempDir()
		d := openStore(t, dir)
		app := ycsb.NewStore(64)
		appendBlocks(t, d, app, 0, 3)
		d.Close()

		incoming := filepath.Join(dir, incomingDir)
		sw, err := wal.Open(filepath.Join(incoming, walDirName), wal.Options{FirstIndex: snap.Height + 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range blocks {
			if _, err := sw.AppendNoSync(ledger.EncodeBlock(blk)); err != nil {
				t.Fatal(err)
			}
		}
		sw.Close()
		ss, err := OpenSnapshots(filepath.Join(incoming, ckpDirName), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Save(snap); err != nil {
			t.Fatal(err)
		}
		if err := writeFileAtomic(dir, filepath.Join(dir, commitMarker), []byte("statesync\n")); err != nil {
			t.Fatal(err)
		}
		if crashMidSwap {
			// The crash landed after the WAL was swapped but before the
			// checkpoint dir was: wal moved, checkpoints still staged.
			if err := os.Rename(filepath.Join(dir, walDirName), filepath.Join(dir, walDirName+retiredSuffix)); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(filepath.Join(incoming, walDirName), filepath.Join(dir, walDirName)); err != nil {
				t.Fatal(err)
			}
		}

		d2 := openStore(t, dir)
		if got := d2.Memory().Height(); got != 9 {
			t.Fatalf("mid-swap=%v: rolled-forward height %d, want 9", crashMidSwap, got)
		}
		if d2.Memory().Base() != 4 {
			t.Fatalf("mid-swap=%v: base %d, want 4", crashMidSwap, d2.Memory().Base())
		}
		if err := d2.Memory().Verify(); err != nil {
			t.Fatalf("mid-swap=%v: %v", crashMidSwap, err)
		}
		app2 := ycsb.NewStore(64)
		if _, err := d2.RestoreApp(app2); err != nil {
			t.Fatalf("mid-swap=%v: restore app: %v", crashMidSwap, err)
		}
		if _, err := os.Stat(filepath.Join(dir, commitMarker)); !os.IsNotExist(err) {
			t.Fatalf("mid-swap=%v: commit marker survived recovery", crashMidSwap)
		}
	}
}

// TestBaseSnapshotPinnedAcrossRetention: later checkpoints must never prune
// the base snapshot — it is the only record of the summarized prefix.
func TestBaseSnapshotPinnedAcrossRetention(t *testing.T) {
	snap, blocks := buildSourceState(t, 6, 4)

	dir := t.TempDir()
	d := openStore(t, dir)
	if err := d.InstallState(snap, blocks); err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	if _, err := d.RestoreApp(app); err != nil {
		t.Fatal(err)
	}
	// Take several newer checkpoints; retention (default 2) would prune
	// the base without the pin.
	for i := 0; i < 4; i++ {
		appendBlocks(t, d, app, 6+i, 1)
		if err := d.Snapshot(app.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	d2 := openStore(t, dir)
	if got := d2.Memory().Height(); got != 10 {
		t.Fatalf("reopened height %d, want 10", got)
	}
	if d2.Memory().Base() != 4 {
		t.Fatalf("reopened base %d, want 4", d2.Memory().Base())
	}
	if err := d2.Memory().Verify(); err != nil {
		t.Fatal(err)
	}
}
