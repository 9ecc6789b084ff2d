package wal

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// DefaultQueueDepth bounds submitted-but-not-durable records when
	// AsyncOptions.QueueDepth is zero.
	DefaultQueueDepth = 1024
	// DefaultMaxBatchBytes caps the payload bytes one fsync covers when
	// AsyncOptions.MaxBatchBytes is zero.
	DefaultMaxBatchBytes = 8 << 20
)

// AsyncOptions parameterizes an Appender.
type AsyncOptions struct {
	// QueueDepth bounds the records in flight (submitted, not yet
	// durable). Submit blocks when the queue is full — the appender's
	// back-pressure (default DefaultQueueDepth).
	QueueDepth int
	// MaxBatchBytes caps the record bytes coalesced under one fsync.
	// Smaller batches bound completion latency; larger ones amortize the
	// fsync further (default DefaultMaxBatchBytes).
	MaxBatchBytes int64
	// OnCommit, when set, observes every successful commit point: the
	// records and payload bytes it covered and how long the commit point
	// (flush + fsync) took. It runs on the committer goroutine before the
	// covered callbacks fire, so it must be fast and must not block.
	OnCommit func(records int, bytes int64, took time.Duration)
}

// pendingRec is one submitted record awaiting its commit point.
type pendingRec struct {
	idx  uint64
	size int64
	done func(lsn uint64, err error)
}

// Appender is the commit path of a Log: Submit writes the record into the
// log's buffer and returns immediately with its index; a single background
// committer issues commit points and then reports each covered record
// durable via its completion callback, carrying the log's durable LSN. The
// log's SyncPolicy decides what a commit point covers and does: under
// SyncGroup it coalesces every record in flight under one fsync (group
// commit for a single sequential appender — the replica event loop's
// situation), under SyncAlways it covers exactly one record, and under
// SyncNone it flushes to the OS without an fsync.
//
// Errors are sticky, mirroring the Log: after any write or fsync failure
// every in-flight callback fires with the error, and every later Submit
// fails immediately — no record past the failure is ever reported durable
// (fsyncgate).
type Appender struct {
	log  *Log
	opts AsyncOptions

	slots   chan struct{}   // back-pressure: one token per record in flight
	records chan pendingRec // the committer's FIFO work queue
	scratch []pendingRec    // committer-only batch buffer

	quit     chan struct{}
	quitOnce sync.Once
	abrupt   atomic.Bool // CloseAbrupt: skip the drain and final fsync
	wg       sync.WaitGroup

	subMu sync.Mutex // serializes append+enqueue so queue order is index order

	mu     sync.Mutex
	err    error // sticky first failure
	closed bool

	submitted atomic.Uint64
	batches   atomic.Uint64 // commit points (fsyncs) issued
}

// NewAppender starts an appender over l. The caller owns sequencing:
// records are durable in submit order, and Submit must not race Close.
func (l *Log) NewAppender(opts AsyncOptions) *Appender {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = DefaultMaxBatchBytes
	}
	a := &Appender{
		log:     l,
		opts:    opts,
		slots:   make(chan struct{}, opts.QueueDepth),
		records: make(chan pendingRec, opts.QueueDepth),
		quit:    make(chan struct{}),
	}
	a.wg.Add(1)
	go a.run()
	return a
}

// Submit writes payload as the log's next record and returns its index
// without waiting for durability. done fires exactly once from the
// committer goroutine — with the durable LSN (>= the returned index) once
// the record's commit point succeeds, or with the sticky error when the
// journal failed after the record was queued. When Submit itself returns an
// error, done is never called. Submit blocks while the in-flight queue is
// full (back-pressure) and fails with ErrClosed once the appender closes.
func (a *Appender) Submit(payload []byte, done func(lsn uint64, err error)) (uint64, error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return 0, ErrClosed
	}
	if a.err != nil {
		err := a.err
		a.mu.Unlock()
		return 0, err
	}
	a.mu.Unlock()

	select {
	case a.slots <- struct{}{}:
	case <-a.quit:
		return 0, ErrClosed
	}

	a.subMu.Lock()
	a.mu.Lock()
	if a.closed {
		// Close won the race between our slot grab and the enqueue; the
		// committer has (or will have) drained, so back out.
		a.mu.Unlock()
		a.subMu.Unlock()
		<-a.slots
		return 0, ErrClosed
	}
	a.mu.Unlock()
	idx, err := a.log.AppendNoSync(payload)
	if err != nil {
		a.subMu.Unlock()
		<-a.slots
		a.fail(err)
		return 0, err
	}
	// Never blocks: cap(records) == cap(slots) and we hold a slot.
	a.records <- pendingRec{idx: idx, size: frameSize + int64(len(payload)), done: done}
	a.subMu.Unlock()
	a.submitted.Add(1)
	return idx, nil
}

// fail records the first error; later Submits and commit points observe it.
func (a *Appender) fail(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
}

// Err returns the sticky failure, nil while the appender is healthy.
func (a *Appender) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Stats reports submitted records and issued commit points; the ratio is
// the pipelining amortization factor (records per fsync).
func (a *Appender) Stats() (submitted, batches uint64) {
	return a.submitted.Load(), a.batches.Load()
}

// run is the committer: pull the oldest in-flight record, coalesce what
// the sync policy allows behind it, issue ONE commit point, then wake every
// covered waiter.
func (a *Appender) run() {
	defer a.wg.Done()
	for {
		var first pendingRec
		select {
		case first = <-a.records:
		case <-a.quit:
			if !a.abrupt.Load() {
				a.drain()
			}
			return
		}
		a.commit(a.collect(first))
	}
}

// collect greedily batches queued records behind first, bounded by
// MaxBatchBytes. Under SyncAlways every record is its own batch.
func (a *Appender) collect(first pendingRec) []pendingRec {
	batch := append(a.scratch[:0], first)
	size := first.size
	for size < a.opts.MaxBatchBytes && a.log.opts.Sync != SyncAlways {
		select {
		case rec := <-a.records:
			batch = append(batch, rec)
			size += rec.size
		default:
			a.scratch = batch
			return batch
		}
	}
	a.scratch = batch
	return batch
}

// commit makes batch durable with one fsync and completes its callbacks in
// index order. Slots free before the callbacks run so a blocked submitter
// resumes as early as possible.
func (a *Appender) commit(batch []pendingRec) {
	if a.abrupt.Load() {
		// Crash already marked (the run loop's select can race quit
		// against a ready queue): no commit point, no callbacks — only
		// release the bookkeeping so CloseAbrupt's wait finishes.
		for i := range batch {
			<-a.slots
			batch[i] = pendingRec{}
		}
		return
	}
	a.mu.Lock()
	err := a.err // a poisoned journal must not report anything durable
	a.mu.Unlock()
	var lsn uint64
	if err == nil {
		var start time.Time
		if a.opts.OnCommit != nil {
			start = time.Now()
		}
		if a.log.opts.Sync == SyncNone {
			// The log's owner opted out of fsync: push to the OS and call
			// that the commit point, best-effort.
			err = a.log.Flush()
			lsn = batch[len(batch)-1].idx // Flush advances no durable watermark
		} else {
			lsn, err = a.log.syncPipelined()
		}
		a.batches.Add(1)
		if err != nil {
			a.fail(err)
		} else if a.opts.OnCommit != nil {
			var size int64
			for i := range batch {
				size += batch[i].size
			}
			a.opts.OnCommit(len(batch), size, time.Since(start))
		}
	}
	for range batch {
		<-a.slots
	}
	// A crash marked while this commit point was in flight suppresses the
	// callbacks: the records ARE durable (fsync completed), but the
	// "process" died before anyone could act on that — exactly the
	// unacked-but-persisted window a real crash leaves.
	abrupt := a.abrupt.Load()
	for i, rec := range batch {
		if rec.done != nil && !abrupt {
			if err != nil {
				rec.done(0, err)
			} else {
				rec.done(lsn, nil)
			}
		}
		batch[i] = pendingRec{} // the reused scratch array must not pin callbacks
	}
}

// drain empties the queue after Close: remaining records get one final
// commit point and their callbacks fire before Close returns.
func (a *Appender) drain() {
	for {
		select {
		case rec := <-a.records:
			a.commit(a.collect(rec))
		default:
			return
		}
	}
}

// Close stops the appender after making every submitted record durable and
// completing its callbacks. It returns the sticky error, if any. The
// underlying Log stays open — close it separately.
func (a *Appender) Close() error {
	a.mu.Lock()
	already := a.closed
	a.closed = true
	a.mu.Unlock()
	if !already {
		// Barrier: a Submit past the closed-check finishes its enqueue
		// before the committer is told to drain.
		a.subMu.Lock()
		_ = struct{}{} // the empty critical section is the barrier
		a.subMu.Unlock()
	}
	a.quitOnce.Do(func() { close(a.quit) })
	a.wg.Wait()
	return a.Err()
}

// CloseAbrupt stops the appender the way a crash would: queued records get
// no commit point, and no callback fires once the crash is marked — a
// batch already inside its commit point may still become durable (a real
// crash can land just after an fsync too) but stays unacknowledged. No
// callback ever runs after CloseAbrupt returns. Pair with Log.CloseAbrupt
// in crash-realism tests.
func (a *Appender) CloseAbrupt() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.abrupt.Store(true)
	a.quitOnce.Do(func() { close(a.quit) })
	a.wg.Wait()
}
