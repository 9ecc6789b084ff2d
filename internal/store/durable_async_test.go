package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// appendBlocksAsync executes n single-transaction batches against app,
// hands them to d, and returns the set of heights acked durable: a
// completion without error whose LSN covers the block's own record (block
// h is WAL record h+1).
func appendBlocksAsync(t *testing.T, d *DurableLedger, app *ycsb.Store, start, n int) (acked func() map[uint64]bool, wait func()) {
	t.Helper()
	var mu sync.Mutex
	got := make(map[uint64]bool)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		batch := &types.Batch{Txns: []types.Transaction{{
			Client: 1, Seq: uint64(start + i + 1),
			Op: ycsb.EncodeWrite(uint32(start+i), []byte(fmt.Sprintf("v%d", start+i))),
		}}}
		for j := range batch.Txns {
			app.Execute(batch.Txns[j])
		}
		proof := ledger.Proof{Round: types.Round(start + i + 1), Digest: batch.Digest(), Signers: []types.ReplicaID{0, 1, 2}}
		wg.Add(1)
		h := d.Memory().Height()
		blk := d.AppendAsync(batch, proof, app.StateDigest(), func(lsn uint64, err error) {
			defer wg.Done()
			if err != nil || lsn < h+1 {
				return
			}
			mu.Lock()
			got[h] = true
			mu.Unlock()
		})
		if blk.Height != h {
			t.Fatalf("block landed at height %d, want the head %d", blk.Height, h)
		}
	}
	return func() map[uint64]bool {
			mu.Lock()
			defer mu.Unlock()
			cp := make(map[uint64]bool, len(got))
			for k, v := range got {
				cp[k] = v
			}
			return cp
		}, func() {
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("async completions never arrived")
			}
		}
}

func TestAsyncLedgerAppendsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	acked, wait := appendBlocksAsync(t, d, app, 0, 25)
	wait()
	if got := len(acked()); got != 25 {
		t.Fatalf("%d heights acked, want 25", got)
	}
	// The whole point of the pipeline: far fewer fsyncs than blocks from a
	// single sequential appender.
	if appends, syncs := d.WAL().Stats(); syncs >= appends {
		t.Fatalf("no amortization: %d fsyncs for %d appends", syncs, appends)
	}
	head := d.Memory().Head()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openStore(t, dir)
	if d2.Memory().Height() != 25 {
		t.Fatalf("reopened at height %d, want 25", d2.Memory().Height())
	}
	if d2.Memory().Head().Hash() != head.Hash() {
		t.Fatal("head hash changed across reopen")
	}
	if err := d2.Memory().Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCrashNeverLosesAckedBlocks is the pipelined path's crash
// acceptance test: kill the ledger without a drain and verify the restart
// replays a verified prefix containing every block whose completion fired.
func TestAsyncCrashNeverLosesAckedBlocks(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	acked, _ := appendBlocksAsync(t, d, app, 0, 40)
	// No drain: crash with whatever is still in flight.
	d.CloseAbrupt()
	ok := acked()

	d2 := openStore(t, dir)
	if err := d2.Memory().Verify(); err != nil {
		t.Fatalf("post-crash chain fails audit: %v", err)
	}
	h := d2.Memory().Height()
	for height := range ok {
		if height >= h {
			t.Fatalf("acked height %d lost: restart replays only %d blocks", height, h)
		}
	}
	// The replayed prefix must re-execute to a journaled state digest.
	fresh := ycsb.NewStore(64)
	if _, err := d2.RestoreApp(fresh); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncSnapshotNeverOutrunsJournal takes a checkpoint while blocks are
// still in flight: the checkpoint must only claim heights the journal holds
// durably, so the reopen must accept the pair.
func TestAsyncSnapshotNeverOutrunsJournal(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	_, wait := appendBlocksAsync(t, d, app, 0, 10)
	// Snapshot immediately — in-flight blocks must not invalidate it.
	if err := d.Snapshot(app.Snapshot()); err != nil {
		t.Fatal(err)
	}
	wait()
	d.CloseAbrupt() // even across a crash, checkpoint and journal agree

	d2 := openStore(t, dir)
	if snap := d2.LatestSnapshot(); snap == nil {
		t.Fatal("checkpoint not recovered")
	}
}

func TestAsyncAppendFailureIsStickyToCallbacks(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	_, wait := appendBlocksAsync(t, d, app, 0, 3)
	wait()
	// Kill the journal out from under the committer — every later append's
	// callback must carry the error, none may claim durability.
	d.WAL().Close()
	errs := make(chan error, 1)
	batch := &types.Batch{Txns: []types.Transaction{{Client: 1, Seq: 99, Op: ycsb.EncodeWrite(1, []byte("x"))}}}
	app.Execute(batch.Txns[0])
	d.AppendAsync(batch, ledger.Proof{Round: 99, Digest: batch.Digest()}, app.StateDigest(), func(lsn uint64, err error) {
		errs <- err
	})
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("append over a dead journal reported durable")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no completion after journal death")
	}
	d.CloseAbrupt()
}

func TestIdentityStampRefusesForeignDataDir(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-0"})
	if err != nil {
		t.Fatal(err)
	}
	app := ycsb.NewStore(64)
	appendBlocks(t, d, app, 0, 3)
	d.Close()

	// Same replica reopens fine.
	d2, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-0"})
	if err != nil {
		t.Fatalf("same-identity reopen: %v", err)
	}
	d2.Close()

	// A different replica must be refused: this chain is replica-0's
	// voting history, not replica-2's.
	if _, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-2"}); !errors.Is(err, ErrDataDirMismatch) {
		t.Fatalf("foreign-identity reopen: %v, want ErrDataDirMismatch", err)
	}
}

func TestIdentityStampRefusesNewerFormat(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-0"})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	// Forge a stamp from the future.
	forged := fmt.Sprintf("RCCDIR %d\nreplica %s\n", formatVersion+1, "replica-0")
	if err := os.WriteFile(filepath.Join(dir, identityFile), []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-0"}); !errors.Is(err, ErrDataDirMismatch) {
		t.Fatalf("newer-format reopen: %v, want ErrDataDirMismatch", err)
	}
}

func TestIdentityStampAdoptedByUnnamedDir(t *testing.T) {
	dir := t.TempDir()
	// First open with no identity (e.g. a direct store test), then a named
	// replica adopts the dir; a different name is then refused.
	d, err := Open(dir, Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d2, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-1"})
	if err != nil {
		t.Fatal(err)
	}
	d2.Close()
	if _, err := Open(dir, Options{Sync: wal.SyncNone, Identity: "replica-3"}); !errors.Is(err, ErrDataDirMismatch) {
		t.Fatalf("post-adoption foreign reopen: %v, want ErrDataDirMismatch", err)
	}
}
