// Package exec defines the deterministic execution engine replicas run
// after consensus. Transactions must be deterministic: on identical inputs,
// execution must always produce identical outcomes (§III-A), which is what
// lets nf matching client replies prove correctness.
//
// The engine executes each unified round serially, in batch order, as the
// paper's replicas do (Fig. 7 left shows the resulting 217 ktxn/s
// execution ceiling).
package exec

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/types"
)

// Application is a deterministic state machine. The engine calls Execute
// from one goroutine at a time, in batch order.
type Application interface {
	// Execute applies tx and returns its result bytes.
	Execute(tx types.Transaction) []byte
	// Keys appends tx's state-key footprint to buf and reports whether
	// the footprint is known (ok=false: unknown; empty with ok=true: tx
	// touches no shared state, e.g. a no-op or a malformed payload the
	// application rejects without mutating state). Keys must be pure and
	// deterministic. The engine does not call it; it stays in the
	// interface for wrappers that forward it.
	Keys(tx types.Transaction, buf []types.StateKey) ([]types.StateKey, bool)
	// StateDigest returns a digest of the current application state.
	StateDigest() types.Digest
}

// Simulated per-transaction CPU costs derived from Fig. 7 left: a replica
// can receive + reply to 551 ktxn/s but only fully execute 217 ktxn/s.
const (
	// CostExecutePerTxn is the sequential execution cost of one txn
	// (1/217k s).
	CostExecutePerTxn = 4600 * time.Nanosecond
	// CostClientIOPerTxn is the receive-request + send-reply handling
	// cost of one txn (1/551k s).
	CostClientIOPerTxn = 1815 * time.Nanosecond
)

// Result describes the outcome of executing one batch.
type Result struct {
	Round       types.Round
	Instance    types.InstanceID
	ResultHash  types.Digest // digest over all per-txn results
	StateHash   types.Digest // application state digest after the batch
	Block       *ledger.Block
	TxnExecuted int
}

// Journal is where the engine appends executed blocks. *ledger.Ledger is
// the in-memory implementation; the durable storage subsystem
// (internal/store wired through internal/runtime) provides a WAL-backed
// one. Pass an untyped nil to skip journalling.
type Journal interface {
	Append(batch *types.Batch, proof ledger.Proof, state types.Digest) *ledger.Block
}

// AsyncJournal is the pipelined journal surface: AppendAsync returns as
// soon as the block joins the chain and the record is handed to the
// journal's committer; done fires exactly once — possibly before
// AppendAsync returns — with nil once the record is durable, or with the
// journal's sticky error, after which the block must not be acknowledged
// to clients. Implementations may run done on a background goroutine.
type AsyncJournal interface {
	Journal
	AppendAsync(batch *types.Batch, proof ledger.Proof, state types.Digest, done func(err error)) *ledger.Block
}

// Engine applies ordered batches to an Application and journals them.
//
// Batches are submitted from a single goroutine at a time (the replica's
// event loop). Executed and StateDigest may be called concurrently with
// execution.
type Engine struct {
	app      Application
	journal  Journal
	executed atomic.Uint64
	met      *obs.NodeMetrics
	replica  uint16 // stamps this engine's lifecycle events

	// Per-batch scratch, reused across batches.
	digests []types.Digest
	hashBuf []byte
}

// SetMetrics attaches the catalog of the given replica: the engine feeds
// the execute- and journal-stage latency histograms and stamps txn_execute
// for sampled transactions. Nil (the default) disables instrumentation.
func (e *Engine) SetMetrics(m *obs.NodeMetrics, replica uint16) { e.met, e.replica = m, replica }

// NewEngine creates an engine over app, journalling into j (which may be
// nil to skip journalling, e.g. in micro-benchmarks).
func NewEngine(app Application, j Journal) *Engine {
	return &Engine{app: app, journal: j}
}

// ExecuteBatch applies every transaction of batch and returns the combined
// result. proof records why the batch is final.
func (e *Engine) ExecuteBatch(batch *types.Batch, proof ledger.Proof) Result {
	res := e.execute(batch, proof)
	if e.journal != nil {
		res.Block = e.appendSync(batch, proof, res.StateHash)
	}
	return res
}

// appendSync journals one block synchronously, feeding the journal-stage
// histogram (submit → durable is one fsync-inclusive call here).
func (e *Engine) appendSync(batch *types.Batch, proof ledger.Proof, state types.Digest) *ledger.Block {
	if e.met == nil {
		return e.journal.Append(batch, proof, state)
	}
	start := time.Now()
	blk := e.journal.Append(batch, proof, state)
	e.met.ObserveStage(obs.StageJournal, time.Since(start))
	return blk
}

// ExecuteBatchAsync is ExecuteBatch over the pipelined commit path: when
// the journal implements AsyncJournal the block is handed off without
// waiting for the disk and done fires once the record is durable (or the
// journal failed); with a plain journal — or none — the append is
// synchronous and done fires inline before ExecuteBatchAsync returns.
//
// done receives the Result by value WITHOUT the Block field — the returned
// Result carries it — because done may run on the journal's committer
// goroutine concurrently with this method's return. Acknowledge clients
// from done, never from the returned Result: the return only means
// "executed", done means "durable".
func (e *Engine) ExecuteBatchAsync(batch *types.Batch, proof ledger.Proof, done func(res Result, err error)) Result {
	res := e.execute(batch, proof)
	if aj, ok := e.journal.(AsyncJournal); ok {
		notify := res // value copy: Block stays unset for the callback
		if met := e.met; met != nil {
			submitted := time.Now()
			res.Block = aj.AppendAsync(batch, proof, res.StateHash, func(err error) {
				met.ObserveStage(obs.StageJournal, time.Since(submitted))
				done(notify, err)
			})
			return res
		}
		res.Block = aj.AppendAsync(batch, proof, res.StateHash, func(err error) { done(notify, err) })
		return res
	}
	if e.journal != nil {
		res.Block = e.appendSync(batch, proof, res.StateHash)
	}
	notify := res
	notify.Block = nil
	done(notify, nil)
	return res
}

// execute applies every transaction of batch in order and assembles the
// result, leaving journalling to the caller.
func (e *Engine) execute(batch *types.Batch, proof ledger.Proof) Result {
	var start time.Time
	if e.met != nil {
		start = time.Now()
	}
	n := len(batch.Txns)
	if cap(e.digests) < n {
		e.digests = make([]types.Digest, n)
	}
	e.digests = e.digests[:n]
	for i := range batch.Txns {
		e.execOne(batch.Txns, i)
	}
	// Assemble the result hash in batch order from the per-txn digests.
	h := e.hashBuf[:0]
	for i := 0; i < n; i++ {
		h = append(h, e.digests[i][:]...)
	}
	total := e.executed.Add(uint64(n))
	var count [8]byte
	binary.BigEndian.PutUint64(count[:], total)
	h = append(h, count[:]...)
	e.hashBuf = h[:0]
	if e.met != nil {
		e.met.ObserveStage(obs.StageExecute, time.Since(start))
		// Stamped here, before the journal submission, so a sampled
		// transaction's txn_execute always precedes its txn_durable.
		e.met.TraceBatch(e.replica, uint32(proof.Instance), batch, flight.KTxnExecute)
	}
	return Result{
		Round:       proof.Round,
		Instance:    proof.Instance,
		ResultHash:  types.Hash(h),
		StateHash:   e.app.StateDigest(),
		TxnExecuted: n,
	}
}

// execOne executes txns[i] and records its result digest, which is all
// ResultHash consumes of it.
func (e *Engine) execOne(txns []types.Transaction, i int) {
	e.digests[i] = types.Hash(e.app.Execute(txns[i]))
}

// Executed returns the total number of transactions executed. Safe to call
// concurrently with execution (metrics scrapes, tests).
func (e *Engine) Executed() uint64 { return e.executed.Load() }

// Restore primes the executed-transaction counter after a restart replay.
// The counter feeds ResultHash, so a restarted replica must resume it to
// produce client replies identical to peers that never crashed.
func (e *Engine) Restore(executed uint64) { e.executed.Store(executed) }

// StateDigest exposes the application state digest.
func (e *Engine) StateDigest() types.Digest { return e.app.StateDigest() }
