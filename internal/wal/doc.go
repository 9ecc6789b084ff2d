// Package wal implements the segmented, checksummed, pipelined
// write-ahead log underlying the durable storage subsystem
// (internal/store). It persists the blockchain ledger the paper's replicas
// maintain (§V-B) so a restarted replica resumes from disk instead of
// demanding full state transfer from its peers.
//
// # On-disk format
//
// A log is a directory of segment files named
//
//	wal-<first-index>.wal        e.g. wal-0000000000000001.wal
//
// where <first-index> is the 1-based index of the segment's first record,
// zero-padded to 16 hex digits so lexicographic order is index order. Each
// segment starts with a 16-byte header:
//
//	offset  size  field
//	0       8     magic "RCCWAL1\n"
//	8       8     first record index, big-endian uint64
//
// followed by a sequence of records framed as
//
//	offset  size  field
//	0       4     payload length, big-endian uint32
//	4       4     CRC-32 (IEEE) of the payload
//	8       n     payload
//
// Records never span segments: when appending a record would push the
// current segment past Options.SegmentBytes, the segment is flushed, synced,
// and closed, and a fresh segment starts with the next index.
//
// # Recovery semantics (open-replay-truncate)
//
// Open scans every segment in index order and validates each record's frame
// and checksum. Damage is classified by where it sits:
//
//   - A record that extends past the end of the LAST segment, or whose
//     checksum fails on the very last record of the last segment, is a torn
//     write — the tail of an append that lost a race with the crash. The
//     segment is truncated to the last intact record and appends resume
//     from there. Torn tails are expected and silent (reported via
//     Log.Truncated for tests and operators).
//
//   - Any other damage — a checksum mismatch with intact records after it,
//     a short record in a non-final segment, a bad segment header — cannot
//     be the trailing edge of a crash and means the storage itself lied.
//     Open fails with ErrCorrupt; recovery then requires state transfer
//     from peers (internal/statesync: delete the data dir and restart),
//     never a silent gap in the journal.
//
// # Rebase on state-transfer install
//
// A log normally starts at record index 1. A state-transfer install
// (store.InstallState) REBASES it: the staged log's first segment starts
// at index H+1, where H is the installed snapshot's height — declaring
// records 1..H summarized by that snapshot rather than lost. Open already
// accepts a first segment past index 1 (pruned logs share the shape); the
// store layer enforces that a rebased journal is always accompanied by its
// base checkpoint (pinned against retention pruning), whose head hash and
// cumulative transaction count anchor the chain below the first record.
// Options.FirstIndex is the creation hook; Log.Base reports the rebase
// point.
//
// Acked⇒durable across a state transfer: the Appender's committer is drained
// and closed before the old journal is retired, the staged log is fully
// fsynced before the commit marker is written, and the install either
// completes or leaves the old state untouched — so at every instant the
// journal on disk covers every transaction any client was ever
// acknowledged for, on both sides of the swap.
//
// # Commit path (Appender)
//
// Every record that must become durable goes through an Appender, the
// pipelined commit path of the replica's single sequential producer (its
// event loop):
//
//   - Submit writes the record into the log's buffer and returns
//     immediately with its index; the caller keeps executing.
//   - A single committer goroutine issues commit points (flush under the
//     write lock, fsync outside it, so submitters keep writing while the
//     disk works), then fires each covered record's completion callback
//     with the durable LSN, in index order.
//   - AsyncOptions.QueueDepth bounds records submitted but not yet
//     durable; a full queue blocks Submit, back-pressuring the producer
//     instead of buffering unacknowledged work without limit.
//   - Errors are sticky (fsyncgate): after one failed commit point every
//     in-flight callback carries the error, later Submits fail, and
//     nothing past the failure is ever reported durable.
//   - Close drains: remaining records get a final commit point and their
//     callbacks before Close returns. CloseAbrupt is the crash-shaped
//     close for tests — no flush, no fsync, no callbacks.
//
// The log's policy (Options.Sync) decides what one commit point covers:
//
//   - SyncGroup (default): group commit — every record in flight, up to
//     AsyncOptions.MaxBatchBytes, shares one fsync, so the ~ms fsync cost
//     amortizes across the blocks the producer executed meanwhile
//     (BenchmarkAsyncJournal reports records/fsync).
//   - SyncAlways: exactly one record, so every record pays its own fsync.
//   - SyncNone: the commit point flushes to the OS without an fsync;
//     durability is left to the page cache. For tests and throwaway runs.
//
// AppendNoSync bypasses the Appender for bulk writes that one explicit
// Sync then covers (state-transfer installs and catch-up).
//
// The replica runtime acknowledges clients from the completion callbacks:
// a client acknowledgement implies the block is on disk, while the event
// loop never waits out an fsync.
package wal
