package wal

import (
	"errors"
	"testing"
)

// TestFsyncFailpointPoisonsLog injects an fsync error into a SyncAlways log
// and checks it enters the same sticky fatal path a real EIO would: the
// failing append's sync surfaces the injected error, the log refuses all further
// appends even after the failpoint heals, and a reopen replays exactly the
// prefix that was fsynced before the fault.
func TestFsyncFailpointPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	injected := errors.New("injected: EIO")
	fp := &Failpoints{}
	l := openT(t, dir, Options{Sync: SyncAlways, Failpoints: fp})
	appendN(t, l, 0, 3)

	fp.FailFsync(injected)
	if _, err := appendSync(l, []byte("doomed")); !errors.Is(err, injected) {
		t.Fatalf("append under armed failpoint returned %v, want %v", err, injected)
	}
	if got := fp.FsyncFails.Load(); got == 0 {
		t.Fatal("fsync failpoint fired but FsyncFails counter is zero")
	}

	// Healing the disk must not resurrect the log: the kernel may have
	// dropped the dirty pages, so the poison is sticky until restart.
	fp.HealFsync()
	if _, err := appendSync(l, []byte("still-doomed")); err == nil {
		t.Fatal("poisoned log accepted an append after HealFsync")
	}
	l.CloseAbrupt()

	// The restart path: a fresh open of the same directory recovers at
	// least the three records fsynced before the fault. (The record whose
	// fsync failed may also survive: its bytes reached the OS page cache,
	// and this crash is a process death, not power loss.)
	l2 := openT(t, dir, Options{Sync: SyncAlways, Failpoints: fp})
	if l2.LastIndex() < 3 {
		t.Fatalf("reopened at index %d, want >= 3", l2.LastIndex())
	}
	got := collect(t, l2)
	for i := 0; i < 3; i++ {
		if got[uint64(i+1)] == "" {
			t.Fatalf("durable record %d missing after reopen", i+1)
		}
	}
	// Healed failpoint: the new incarnation writes fine.
	if _, err := appendSync(l2, []byte("recovered")); err != nil {
		t.Fatalf("append after restart: %v", err)
	}
}

// TestTornWriteFailpointRepairedOnReopen arms the torn-write failpoint,
// crashes the log, and checks reopen repairs the segment via the same
// torn-tail truncation a real mid-write power loss exercises.
func TestTornWriteFailpointRepairedOnReopen(t *testing.T) {
	dir := t.TempDir()
	fp := &Failpoints{}
	l := openT(t, dir, Options{Sync: SyncNone, Failpoints: fp})
	appendN(t, l, 0, 6)

	fp.TearOnCrash(10)
	l.CloseAbrupt()
	if got := fp.TornWrites.Load(); got != 1 {
		t.Fatalf("TornWrites = %d after CloseAbrupt, want 1", got)
	}

	l2 := openT(t, dir, Options{Sync: SyncNone, Failpoints: fp})
	if l2.Truncated() == 0 {
		t.Fatal("reopen repaired nothing: torn tail was not truncated")
	}
	if l2.LastIndex() >= 6 {
		t.Fatalf("reopened at index %d, want < 6 (torn final record dropped)", l2.LastIndex())
	}
	got := collect(t, l2)
	for i := uint64(1); i <= l2.LastIndex(); i++ {
		if got[i] == "" {
			t.Fatalf("surviving record %d missing after torn-tail repair", i)
		}
	}
	// The repaired log must accept new appends at the truncated index.
	appendN(t, l2, int(l2.LastIndex()), 3)
}
