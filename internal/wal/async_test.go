package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ack is one completion notification observed by a test callback.
type ack struct {
	idx uint64 // the record's own index
	lsn uint64 // durable watermark reported with it
	err error
}

// submitN submits n records sequentially (the replica event loop's
// situation) and returns a channel carrying every completion.
func submitN(t *testing.T, a *Appender, start, n int) chan ack {
	t.Helper()
	acks := make(chan ack, n)
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("record-%04d", start+i))
		idx, err := a.Submit(payload, func(idx uint64) func(uint64, error) {
			return func(lsn uint64, err error) { acks <- ack{idx: idx, lsn: lsn, err: err} }
		}(uint64(start+i+1)))
		if err != nil {
			t.Fatalf("submit %d: %v", start+i, err)
		}
		if want := uint64(start + i + 1); idx != want {
			t.Fatalf("submit returned index %d, want %d", idx, want)
		}
	}
	return acks
}

func TestAsyncSubmitCompletesDurableInOrder(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	a := l.NewAppender(AsyncOptions{QueueDepth: 8})
	const n = 100
	acks := submitN(t, a, 0, n)
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(acks)
	var prev uint64
	count := 0
	for k := range acks {
		count++
		if k.err != nil {
			t.Fatalf("record %d completed with error: %v", k.idx, k.err)
		}
		if k.idx <= prev {
			t.Fatalf("completion order violated: %d after %d", k.idx, prev)
		}
		if k.lsn < k.idx {
			t.Fatalf("record %d reported durable at LSN %d < its own index", k.idx, k.lsn)
		}
		prev = k.idx
	}
	if count != n {
		t.Fatalf("%d completions, want %d", count, n)
	}
	if l.DurableIndex() != n {
		t.Fatalf("durable index %d, want %d", l.DurableIndex(), n)
	}
	// The whole point: far fewer fsyncs than records.
	if sub, batches := a.Stats(); batches == 0 || batches >= sub {
		t.Fatalf("no amortization: %d records over %d commit points", sub, batches)
	}
	l.Close()
	l2 := openT(t, dir, Options{})
	if got := len(collect(t, l2)); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
}

func TestAsyncBackPressureBoundsInFlight(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	// Stall the committer inside fsync so the queue genuinely fills.
	release := make(chan struct{})
	var stalled sync.Once
	ready := make(chan struct{})
	l.fsyncFn = func(f *os.File) error {
		stalled.Do(func() { close(ready) })
		<-release
		return f.Sync()
	}
	const depth = 4
	a := l.NewAppender(AsyncOptions{QueueDepth: depth})
	var done atomic.Int64
	// Wedge the committer on the first record's fsync, then fill the
	// remaining in-flight slots (the wedged record still holds one).
	if _, err := a.Submit([]byte("r0"), func(uint64, error) { done.Add(1) }); err != nil {
		t.Fatal(err)
	}
	<-ready
	for i := 0; i < depth-1; i++ {
		if _, err := a.Submit([]byte("r"), func(uint64, error) { done.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	extra := make(chan error, 1)
	go func() {
		_, err := a.Submit([]byte("overflow"), func(uint64, error) { done.Add(1) })
		extra <- err
	}()
	select {
	case err := <-extra:
		t.Fatalf("submit past a full queue returned (%v) instead of blocking", err)
	case <-time.After(50 * time.Millisecond):
		// Blocked — back-pressure works.
	}
	close(release)
	if err := <-extra; err != nil {
		t.Fatalf("blocked submit failed after queue drained: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := done.Load(); got != depth+1 {
		t.Fatalf("%d completions after close, want %d", got, depth+1)
	}
}

// TestAsyncStickyFsyncFailure is the fsyncgate scenario through the
// pipelined path: once one commit point fails, every queued record's
// callback carries the error, no later record is ever reported durable,
// and Submit itself refuses new work.
func TestAsyncStickyFsyncFailure(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	boom := errors.New("injected: disk on fire")
	var failing atomic.Bool
	l.fsyncFn = func(f *os.File) error {
		if failing.Load() {
			return boom
		}
		return f.Sync()
	}
	a := l.NewAppender(AsyncOptions{QueueDepth: 64})

	acks := submitN(t, a, 0, 10) // healthy prefix
	waitAcks := func(n int, wantErr error) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case k := <-acks:
				if !errors.Is(k.err, wantErr) {
					t.Fatalf("record %d: err=%v, want %v", k.idx, k.err, wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("timed out waiting for completions")
			}
		}
	}
	waitAcks(10, nil)

	failing.Store(true)
	for i := 0; i < 5; i++ {
		payload := []byte(fmt.Sprintf("doomed-%d", i))
		if _, err := a.Submit(payload, func(lsn uint64, err error) { acks <- ack{lsn: lsn, err: err} }); err != nil {
			// Sticky error already surfaced at submit — also acceptable,
			// but only after the first failed commit point.
			if i == 0 {
				t.Fatalf("first submit after fsync failure rejected early: %v", err)
			}
			break
		}
	}
	// Every record queued after the failure completes with the error.
	select {
	case k := <-acks:
		if k.err == nil {
			t.Fatalf("record reported durable (lsn %d) despite failed fsync", k.lsn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no error completion after fsync failure")
	}
	// And the appender is poisoned for good — even with fsync "repaired",
	// dirty pages may already be gone (fsyncgate).
	failing.Store(false)
	if _, err := a.Submit([]byte("after"), nil); err == nil {
		t.Fatal("submit succeeded on a poisoned appender")
	}
	if a.Err() == nil {
		t.Fatal("sticky error not recorded")
	}
	a.Close()
}

// TestAsyncCrashLosesOnlyUnackedTail kills the appender with a full
// in-flight queue and verifies a reopen replays exactly the durable prefix:
// every record whose callback fired with err == nil is present; the
// unacked tail (stuck behind a stalled fsync, then crashed) is gone.
func TestAsyncCrashLosesOnlyUnackedTail(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	release := make(chan struct{})
	var once sync.Once
	gate := make(chan struct{})
	var blocked atomic.Bool
	l.fsyncFn = func(f *os.File) error {
		if blocked.Load() {
			once.Do(func() { close(gate) })
			<-release // hold the commit point until "power loss"
			return errors.New("crashed mid-fsync")
		}
		return f.Sync()
	}

	const depth = 4
	a := l.NewAppender(AsyncOptions{QueueDepth: depth})
	var acked atomic.Uint64
	// Healthy, acknowledged prefix.
	for i := 0; i < 9; i++ {
		if _, err := a.Submit([]byte(fmt.Sprintf("acked-%02d", i)), func(lsn uint64, err error) {
			if err == nil {
				acked.Store(max(acked.Load(), lsn))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	a.drainWait(t)
	if acked.Load() != 9 {
		t.Fatalf("healthy prefix acked through %d, want 9", acked.Load())
	}

	// Record 10 wedges the committer INSIDE its failing fsync — after the
	// flush, so it reached the OS but will never be acked. Records 11..13
	// then land only in the write buffer (the committer is stuck, so no
	// flush runs) and fill the remaining in-flight slots: a full queue at
	// crash time.
	blocked.Store(true)
	if _, err := a.Submit([]byte("wedged-09"), nil); err != nil {
		t.Fatal(err)
	}
	<-gate
	for i := 0; i < depth-1; i++ {
		if _, err := a.Submit([]byte(fmt.Sprintf("doomed-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		// Unwedge the committer only after CloseAbrupt has marked the
		// crash, so no doomed record can still be committed.
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	a.CloseAbrupt()
	l.CloseAbrupt()

	l2 := openT(t, dir, Options{})
	got := collect(t, l2)
	for i := uint64(1); i <= acked.Load(); i++ {
		if _, ok := got[i]; !ok {
			t.Fatalf("acked record %d lost across crash-restart", i)
		}
	}
	// Restart replays exactly the prefix that reached the OS: the acked
	// records plus the flushed-but-unacked record 10. The buffered tail
	// died with the process.
	if uint64(len(got)) != 10 {
		t.Fatalf("replayed %d records, want exactly 10 (acked prefix + flushed record), buffered tail lost", len(got))
	}
	for i := uint64(11); i <= 13; i++ {
		if _, ok := got[i]; ok {
			t.Fatalf("unflushed record %d survived the crash", i)
		}
	}
}

// drainWait blocks until everything submitted so far has completed.
func (a *Appender) drainWait(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sub, _ := a.Stats()
		if a.log.DurableIndex() >= sub {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("appender did not drain")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAsyncSubmitAfterCloseFails(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	a := l.NewAppender(AsyncOptions{})
	if _, err := a.Submit([]byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit([]byte("y"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncSyncNonePolicySkipsFsync(t *testing.T) {
	l := openT(t, t.TempDir(), Options{Sync: SyncNone})
	a := l.NewAppender(AsyncOptions{QueueDepth: 8})
	acks := submitN(t, a, 0, 20)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	close(acks)
	n := 0
	for k := range acks {
		if k.err != nil {
			t.Fatalf("completion error under SyncNone: %v", k.err)
		}
		n++
	}
	if n != 20 {
		t.Fatalf("%d completions, want 20", n)
	}
	if _, syncs := l.Stats(); syncs != 0 {
		t.Fatalf("%d fsyncs issued under SyncNone", syncs)
	}
}

// TestAsyncSyncAlwaysCommitsEachRecord pins SyncAlways as an appender
// policy: every record gets its own commit point, even when records queue
// up behind a slow fsync that SyncGroup would coalesce.
func TestAsyncSyncAlwaysCommitsEachRecord(t *testing.T) {
	l := openT(t, t.TempDir(), Options{Sync: SyncAlways})
	release := make(chan struct{})
	var stalled sync.Once
	ready := make(chan struct{})
	l.fsyncFn = func(f *os.File) error {
		stalled.Do(func() { close(ready) })
		<-release
		return f.Sync()
	}
	a := l.NewAppender(AsyncOptions{QueueDepth: 16})
	acks := submitN(t, a, 0, 1)
	<-ready // the first commit point is in its fsync
	more := submitN(t, a, 1, 9)
	close(release)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	close(acks)
	close(more)
	for _, ch := range []chan ack{acks, more} {
		for k := range ch {
			if k.err != nil || k.lsn < k.idx {
				t.Fatalf("record %d: lsn %d, err %v", k.idx, k.lsn, k.err)
			}
		}
	}
	submitted, batches := a.Stats()
	if submitted != 10 || batches != submitted {
		t.Fatalf("%d records over %d commit points, want one commit point per record", submitted, batches)
	}
	if _, syncs := l.Stats(); syncs != submitted {
		t.Fatalf("%d fsyncs for %d records", syncs, submitted)
	}
}
