// Package repro is a from-scratch Go reproduction of "RCC: Resilient
// Concurrent Consensus for High-Throughput Secure Transaction Processing"
// (Gupta, Hellings, Sadoghi — ICDE 2021).
//
// The public API lives in internal/core (cluster assembly), the paradigm in
// internal/rcc, the baseline protocols in internal/{pbft,zyzzyva,sbft,
// hotstuff,mirbft}, and the experiment harness in internal/bench plus
// cmd/rccbench. See README.md for the package tour, the subsystem
// overviews, and how to run rccnode/rccclient/rccbench.
//
// Durable storage: replicas configured with a data directory
// (runtime.Config.DataDir, core.Options.DataDir, rccnode -data-dir)
// journal every decided block through a segmented, CRC-checked,
// pipelined write-ahead log (internal/wal) and persist execution-state
// checkpoints (internal/store) — RCC's dynamic per-need checkpoints
// (§III-D) double as the durable recovery points. A restarted replica
// replays the log (truncating a torn tail, refusing corruption), restores
// the application from the latest checkpoint, and resumes at its pre-crash
// ledger height with an identical head hash — its own disk suffices. See
// internal/wal's package documentation for the on-disk format and
// examples/recovery for a kill-and-restart walkthrough. Data dirs are
// stamped with a replica identity and format version on first open and
// refuse to serve a different replica or a newer format.
//
// Pipelined durability: the fsync never runs on the consensus event loop.
// Every executed block is handed to the WAL's background committer over a
// bounded in-flight queue (-journal-queue), and the client replies for a
// block wait for its WAL record to be reported durable. The sync policy
// (-sync) decides what one commit point covers: group (the default) lets
// many in-flight blocks share one fsync (-journal-batch-bytes caps the
// batch; BenchmarkAsyncJournal reports records/fsync), always gives every
// block its own fsync, and none is flush-only (process-crash-safe, not
// power-loss-safe). Under an fsyncing policy an acknowledged transaction
// survives any crash. When the queue fills, execution back-pressures;
// shutdown and checkpoints drain it so snapshots never outrun the journal.
// See internal/wal's package documentation for the pipeline design.
//
// Non-blocking messaging layer: no network I/O or encoding ever runs on
// the consensus event loop. Send and SendClient on every transport
// (internal/transport) are enqueue-only — bounded per-destination queues
// feed dedicated writer goroutines that encode messages through the
// registry-based binary codec in internal/types (explicit MsgType tag,
// per-type Marshal/Unmarshal, pooled buffers; replaces per-message gob),
// coalesce bursts into multi-message frames (wire format v2, one write
// syscall per burst), and redial failed peers with exponential backoff.
// Replica links backpressure on overflow while the peer is healthy and
// drop (counted) while it is down; client links always drop on overflow,
// so one stalled client or peer can never delay anyone else — client
// acks ride these per-client queues straight off the WAL committer.
// Connections open with a wire-version handshake and refuse mismatched
// peers, the network twin of store.ErrDataDirMismatch. rccnode/rccclient
// expose -send-queue, -client-queue, and -send-batch-bytes;
// BenchmarkBroadcast and BenchmarkCodec measure the win (enqueue-only
// vote broadcast is >10x the old inline gob+write path) and CI gates it.
//
// State-transfer subsystem: a replica whose disk no longer reaches the
// cluster — wiped, corrupted, or partitioned past what in-protocol
// checkpoint catch-up (§III-C/§III-D) can bridge — heals itself through
// internal/statesync (rccnode -state-sync, on by default with -data-dir).
// It probes its peers, trusts only a target that f+1 distinct replicas
// attest with byte-identical offers (snapshot digests, ledger head, and
// the consensus machine's serialized frontier, sm.StateSyncable), fetches
// the snapshot in bounded chunks (-snapshot-chunk-bytes) plus the ledger
// suffix in block ranges, and verifies everything against the attested
// digests: reassembled chunks must hash to the attested state digest,
// blocks must chain hash-to-hash from the attested anchor to the attested
// head, proofs must cover their batches. The install is crash-atomic
// (staging + commit marker): a kill -9 at any point leaves either the
// pre-transfer state or the fully installed one, never a mix. Installing
// rebases the WAL to the snapshot height (records below it live on only
// inside the pinned base checkpoint) and hands the machine the attested
// frontier, so the replica votes at the cluster head immediately —
// including decisions it accumulated while the transfer ran. Acked⇒durable
// is preserved across a transfer: a syncing replica defers no acks (it is
// not executing), and after the install its journal again covers exactly
// the chain it acknowledges. rccbench -exp statesync reports transfer
// throughput (MB/s, blocks/s).
//
// Execution: the engine (internal/exec) applies each unified round
// serially, in batch order, as the paper's replicas do. The live benchmark
// (livebench) measured execution at under 1% of CPU per transaction and a
// mean execution concurrency of 1.00 under a worker pool, so parallel
// execution would not move client-observed numbers. Applications still
// declare per-transaction key footprints (Application.Keys,
// types.StateKey), which the engine does not call.
//
// Compatibility note: runtime.Config's flat durability and state-sync
// knobs are grouped — Durability/JournalQueueDepth/JournalMaxBatchBytes/
// SnapshotEvery became the Journaling (runtime.JournalOptions) group, the
// StateSync*/SnapshotChunk fields became the StateSync
// (runtime.StateSyncOptions) group. The synchronous journal is gone:
// JournalOptions.Async is deprecated and ignored, and the core option and
// rccnode flag that chose between the two journals were removed.
//
// Frame authentication at line rate: internal/crypto implements the
// paper's Fig. 7-right schemes as production hot paths. NewMAC precomputes
// pairwise HMAC keys and pools HMAC state (Tag+Verify is one pool hit, one
// allocation — CI holds it >= 5x the derive-per-call path via
// scripts/benchgate -min-cached-speedup). NewDSDev derives a deterministic
// ED25519 dev keyring from one shared secret, so rccnode/rccclient key a
// whole cluster with -auth none|mac|ds plus -auth-secret (production keys
// plug into NewDS/KeyRing). With signatures, inbound verification runs on
// a bounded worker pool in internal/transport (-verify-workers) that
// batch-verifies each frame's records through one BatchVerifier (bisection
// isolates forged records) while preserving exact per-link delivery order;
// a sharded cache of verified client-request digests (-digest-cache,
// internal/crypto/digestcache) lets any of RCC's m concurrent instances
// skip re-verifying a retransmitted request another instance already
// checked, and links exceeding consecutive bad tags are demoted
// (reconnect, counted). The verify stage reports into
// rcc_stage_latency_seconds{stage="verify"}; rccbench -exp crypto measures
// the live none/mac/ds cost on a real loopback cluster, and a determinism
// test pins byte-identical ResultHash/StateDigest across verify-worker
// counts. See the README's "Authentication" section.
//
// Observability: internal/obs instruments the full request path —
// per-stage latency histograms (verify, consensus, unify, execute,
// journal, ack),
// consensus/WAL/transport/statesync counters, Go runtime self-metrics,
// and deterministic 1-in-N sampling of transaction lifecycles into the
// flight recorder — behind a dependency-free, allocation-free metrics
// registry whose overhead CI gates at ≤5% of the instrumented hot paths.
// rccnode -admin-addr serves /metrics (Prometheus text format), /healthz
// (flips on the sticky durability error), /readyz (journaling and caught
// up), /debug/events, and /debug/pprof. See internal/obs and the README's
// "Observability" section; rccbench -exp stages prints the same stage
// breakdown against client-observed end-to-end latency.
//
// Flight recorder: internal/obs/flight is the black box behind
// /debug/events — a lock-free bounded ring of fixed-shape protocol events
// (view changes, suspects, checkpoint adoptions, instance decisions, wave
// unifications, voids, recovery kicks, connect/reconnect/demotions,
// fsync stalls, the sticky durability poison, snapshot commits, statesync
// phase transitions and offer rejections with causes, loop_stalled from
// the event-loop watchdog, and the txn_arrive ... txn_ack lifecycle stamps
// of sampled transactions). Dumps are cursor-based (?since=, text or
// binary), mirror crash-safely to <data-dir>/flight.bin (-flight-mirror,
// plus immediately on durability poison), and merge across replicas into
// one causally ordered cluster timeline with anomaly highlighting:
// rccnode -timeline <admin-addr|flight.bin>[,...]. rccbench -exp timeline
// rehearses the workflow in-process; see the README's "Flight recorder &
// cluster timeline" section for the event catalog, the cursor contract,
// and a worked stuck-wave diagnosis.
//
// The root-level benchmarks (bench_test.go) expose one testing.B target per
// table and figure of the paper's evaluation:
//
//	go test -bench=. -benchmem .
//
// CI runs them (benchtime=1x smoke plus a longer WAL/journal/messaging/
// observability/authentication pass), emits BENCH_ci.json, and gates
// merges on >25% ns/op regressions against the committed
// BENCH_baseline.json via scripts/benchgate, which also enforces the
// observability overhead ceiling (-max-overhead) and the authentication
// floors (-min-cached-speedup, -min-pooled-speedup).
package repro
