package main

import (
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
)

// The traced run wraps the public seams the stack is assembled from:
// sm.Machine and the sm.Env it receives, transport.Transport and
// transport.Endpoint, crypto.Authenticator, exec.Application, and the client
// sessions. Each wrapper forwards exactly the optional interfaces its bare
// value implements (TestWrappersForwardTheSameOptionalInterfaces), so traced
// and untraced runs take the same code paths: pooled batch verify, allocation-free tagging,
// checkpoints, and state sync.
//
// Counters count only inside the measured window. Per-transaction spans
// follow a deterministic 1-in-spanEvery sample of (client, seq) from issue to
// completion, even when completion falls after the window.

type txnKey struct {
	c   types.ClientID
	seq uint64
}

// batchRec times one non-no-op decision on one replica: Env.Deliver entry
// and return, and the first client reply sent for the batch.
type batchRec struct {
	deliver, deliverEnd, firstAck int64
}

// span is the life of one sampled transaction.
type span struct {
	due     int64 // issue time (closed loop: sent; open loop: due)
	sent    int64 // first ClientRequest handed to the client transport
	ingress int64 // request handed to the primary's transport.Endpoint
	loopIn  int64 // primary's Machine.OnMessage of the request
	arrive  int64 // the reply completing the f+1 quorum reaches the client
	done    int64 // completion hook
	from    types.ReplicaID
	replied uint32 // bitmask of replicas whose reply arrived
	batch   [replicas]*batchRec
	ack     [replicas]int64 // SendClient of this transaction's reply
}

// tracer collects the traced run's per-layer measurements.
type tracer struct {
	every  uint64      // span sample: seq % every == 0
	window atomic.Bool // counters record
	armed  atomic.Bool // spans and batch records record

	sends, clientSends atomic.Int64 // replica and client transport enqueues
	tags, verifies     atomic.Int64
	tagNs, verifyNs    atomic.Int64
	msgsIn, busyNs     atomic.Int64
	execs, execNs      atomic.Int64
	execBusyNs         atomic.Int64
	decisions, noops   atomic.Int64
	txnsDelivered      atomic.Int64
	sendUs, loopWaitUs dist
	lifeSends          atomic.Int64 // lifetime, for the cross-check
	lifeExecs          atomic.Int64
	lifeBlocks         atomic.Int64
	stampN             atomic.Uint64

	spanMu sync.Mutex
	spans  map[txnKey]*span

	reps [replicas]*repTrace
}

// repTrace is one replica's tracing state.
type repTrace struct {
	t  *tracer
	id types.ReplicaID
	// envNs accumulates time inside Env callbacks during one machine call.
	// Touched only on the replica's event loop.
	envNs int64

	mu       sync.Mutex
	firstTxn map[txnKey]*batchRec // batch's first transaction -> record, until its first reply
	batches  []*batchRec          // window batches

	execMu    sync.Mutex
	execIn    int
	execStart int64

	stampMu sync.Mutex
	stamps  map[types.Message]int64 // Endpoint.Deliver* time, sampled
}

func newTracer(every uint64) *tracer {
	t := &tracer{every: every, spans: make(map[txnKey]*span)}
	for i := range t.reps {
		t.reps[i] = &repTrace{
			t: t, id: types.ReplicaID(i),
			firstTxn: make(map[txnKey]*batchRec),
			stamps:   make(map[types.Message]int64),
		}
	}
	return t
}

// primary is the replica whose instance serves client c: RCC assigns c to
// instance c mod m, and instance i's primary is replica i (m = n, view 0).
func primary(c types.ClientID) types.ReplicaID { return types.ReplicaID(uint32(c) % replicas) }

func (t *tracer) sampled(seq uint64) bool { return seq%t.every == 0 }

// withSpan runs f on the span of (c, seq) when it is tracked.
func (t *tracer) withSpan(c types.ClientID, seq uint64, f func(*span)) {
	if !t.sampled(seq) {
		return
	}
	t.spanMu.Lock()
	if s := t.spans[txnKey{c, seq}]; s != nil {
		f(s)
	}
	t.spanMu.Unlock()
}

func (t *tracer) begin(c types.ClientID, seq uint64, due int64) {
	if t == nil || !t.window.Load() || !t.sampled(seq) {
		return
	}
	t.spanMu.Lock()
	t.spans[txnKey{c, seq}] = &span{due: due}
	t.spanMu.Unlock()
}

func (t *tracer) end(c types.ClientID, seq uint64, at int64) {
	if t == nil {
		return
	}
	t.withSpan(c, seq, func(s *span) { setIf0(&s.done, at) })
}

// setIf0 stores v into *p unless *p is already set.
func setIf0(p *int64, v int64) {
	if *p == 0 {
		*p = v
	}
}

// ---------------------------------------------------------------------------
// Machine and Env
// ---------------------------------------------------------------------------

type tracedMachine struct {
	inner sm.Machine
	r     *repTrace
}

func (t *tracer) wrapMachine(id types.ReplicaID, m sm.Machine) sm.Machine {
	base := &tracedMachine{inner: m, r: t.reps[id]}
	if b, ok := m.(sm.BoundarySyncable); ok {
		return struct {
			*tracedMachine
			sm.BoundarySyncable
		}{base, b}
	}
	if s, ok := m.(sm.StateSyncable); ok {
		return struct {
			*tracedMachine
			sm.StateSyncable
		}{base, s}
	}
	return base
}

func (m *tracedMachine) Start(env sm.Env) { m.inner.Start(m.r.wrapEnv(env)) }

func (m *tracedMachine) OnMessage(from sm.Source, msg types.Message) {
	r, t := m.r, m.r.t
	t0 := now()
	if t.window.Load() {
		r.matchStamp(msg, t0)
	}
	if req, ok := msg.(*types.ClientRequest); ok && from.IsClient && primary(req.Tx.Client) == r.id {
		t.withSpan(req.Tx.Client, req.Tx.Seq, func(s *span) { setIf0(&s.loopIn, t0) })
	}
	r.envNs = 0
	m.inner.OnMessage(from, msg)
	m.account(t0, true)
}

func (m *tracedMachine) OnTimer(id sm.TimerID) {
	t0 := now()
	m.r.envNs = 0
	m.inner.OnTimer(id)
	m.account(t0, false)
}

// account charges the machine's self time: the call minus its Env
// callbacks.
func (m *tracedMachine) account(t0 int64, msg bool) {
	t := m.r.t
	if !t.window.Load() {
		return
	}
	t.busyNs.Add(now() - t0 - m.r.envNs)
	if msg {
		t.msgsIn.Add(1)
	}
}

// tracedEnv times every effect a machine emits, so the machine's self time
// excludes transport enqueues, timers, and execution.
type tracedEnv struct {
	inner sm.Env
	r     *repTrace
}

type deferredCheckpointer struct{ d sm.DeferredCheckpointer }
type checkpointSink struct {
	s sm.CheckpointSink
	r *repTrace
}
type stateSyncRequester struct{ q sm.StateSyncRequester }

func (d deferredCheckpointer) CheckpointDue() bool { return d.d.CheckpointDue() }
func (q stateSyncRequester) RequestStateSync()     { q.q.RequestStateSync() }
func (c checkpointSink) PersistCheckpoint() {
	t0 := now()
	c.s.PersistCheckpoint()
	c.r.envNs += now() - t0
}

// wrapEnv returns the traced Env with exactly the optional interfaces env
// implements.
func (r *repTrace) wrapEnv(env sm.Env) sm.Env {
	e := &tracedEnv{inner: env, r: r}
	d, hasD := env.(sm.DeferredCheckpointer)
	s, hasS := env.(sm.CheckpointSink)
	q, hasQ := env.(sm.StateSyncRequester)
	dc, cs, sq := deferredCheckpointer{d}, checkpointSink{s, r}, stateSyncRequester{q}
	switch {
	case hasD && hasS && hasQ:
		return struct {
			*tracedEnv
			deferredCheckpointer
			checkpointSink
			stateSyncRequester
		}{e, dc, cs, sq}
	case hasD && hasS:
		return struct {
			*tracedEnv
			deferredCheckpointer
			checkpointSink
		}{e, dc, cs}
	case hasD && hasQ:
		return struct {
			*tracedEnv
			deferredCheckpointer
			stateSyncRequester
		}{e, dc, sq}
	case hasS && hasQ:
		return struct {
			*tracedEnv
			checkpointSink
			stateSyncRequester
		}{e, cs, sq}
	case hasD:
		return struct {
			*tracedEnv
			deferredCheckpointer
		}{e, dc}
	case hasS:
		return struct {
			*tracedEnv
			checkpointSink
		}{e, cs}
	case hasQ:
		return struct {
			*tracedEnv
			stateSyncRequester
		}{e, sq}
	}
	return e
}

func (e *tracedEnv) ID() types.ReplicaID             { return e.inner.ID() }
func (e *tracedEnv) Params() quorum.Params           { return e.inner.Params() }
func (e *tracedEnv) Now() time.Duration              { return e.inner.Now() }
func (e *tracedEnv) Logf(format string, args ...any) { e.inner.Logf(format, args...) }

func (e *tracedEnv) Send(to types.ReplicaID, m types.Message) {
	t0 := now()
	e.inner.Send(to, m)
	e.r.envNs += now() - t0
}

func (e *tracedEnv) Broadcast(m types.Message) {
	t0 := now()
	e.inner.Broadcast(m)
	e.r.envNs += now() - t0
}

func (e *tracedEnv) SendClient(c types.ClientID, m types.Message) {
	t0 := now()
	e.inner.SendClient(c, m)
	e.r.envNs += now() - t0
}

func (e *tracedEnv) SetTimer(id sm.TimerID, d time.Duration) {
	t0 := now()
	e.inner.SetTimer(id, d)
	e.r.envNs += now() - t0
}

func (e *tracedEnv) CancelTimer(id sm.TimerID) {
	t0 := now()
	e.inner.CancelTimer(id)
	e.r.envNs += now() - t0
}

func (e *tracedEnv) Suspect(inst types.InstanceID, round types.Round) {
	t0 := now()
	e.inner.Suspect(inst, round)
	e.r.envNs += now() - t0
}

// Deliver times execution plus the hand-off to the journal, and registers
// the batch so its first reply marks the end of the durability wait.
func (e *tracedEnv) Deliver(d sm.Decision) {
	r, t := e.r, e.r.t
	t0 := now()
	noop := d.Batch == nil || d.Batch.IsNoOp()
	var rec *batchRec
	if !noop && t.armed.Load() {
		rec = &batchRec{deliver: t0}
		if k, ok := firstTxn(d.Batch); ok {
			r.mu.Lock()
			r.firstTxn[k] = rec
			r.mu.Unlock()
		}
	}
	e.inner.Deliver(d)
	t1 := now()
	r.envNs += t1 - t0
	if !noop {
		t.lifeBlocks.Add(1)
	}
	if t.window.Load() {
		t.decisions.Add(1)
		if noop {
			t.noops.Add(1)
		} else {
			t.txnsDelivered.Add(int64(d.Batch.Len()))
		}
	}
	if rec == nil {
		return
	}
	r.mu.Lock()
	rec.deliverEnd = t1
	if t.window.Load() {
		r.batches = append(r.batches, rec)
	}
	r.mu.Unlock()
	for i := range d.Batch.Txns {
		tx := &d.Batch.Txns[i]
		t.withSpan(tx.Client, tx.Seq, func(s *span) {
			if s.batch[r.id] == nil {
				s.batch[r.id] = rec
			}
		})
	}
}

func firstTxn(b *types.Batch) (txnKey, bool) {
	for i := range b.Txns {
		if tx := &b.Txns[i]; !tx.IsNoOp() {
			return txnKey{tx.Client, tx.Seq}, true
		}
	}
	return txnKey{}, false
}

// stampEvery samples the messages whose endpoint-to-machine wait is timed;
// timing all of them would put a map write on every delivery.
const stampEvery = 8

// stamp records when a sampled message reached the replica's endpoint.
func (r *repTrace) stamp(m types.Message) {
	if !r.t.window.Load() || r.t.stampN.Add(1)%stampEvery != 0 || !comparablePtr(m) {
		return
	}
	at := now()
	r.stampMu.Lock()
	if len(r.stamps) > 1<<16 {
		// Messages the runtime consumes before the machine (state-sync
		// traffic, cached-reply resends) never match; drop them in bulk.
		clear(r.stamps)
	}
	r.stamps[m] = at
	r.stampMu.Unlock()
}

// matchStamp turns a stamped message's arrival into a loop wait sample.
func (r *repTrace) matchStamp(m types.Message, at int64) {
	if !comparablePtr(m) {
		return
	}
	r.stampMu.Lock()
	t0, ok := r.stamps[m]
	if ok {
		delete(r.stamps, m)
	}
	r.stampMu.Unlock()
	if ok {
		r.t.loopWaitUs.add(float64(at-t0) / 1e3)
	}
}

// comparablePtr reports whether m can key a map by identity.
func comparablePtr(m types.Message) bool {
	return m != nil && reflect.TypeOf(m).Kind() == reflect.Pointer
}

// ---------------------------------------------------------------------------
// Transport and Endpoint
// ---------------------------------------------------------------------------

type tracedTransport struct {
	inner transport.Transport
	r     *repTrace
}

func (t *tracer) wrapTransport(id types.ReplicaID, tr transport.Transport) transport.Transport {
	return &tracedTransport{inner: tr, r: t.reps[id]}
}

func (tt *tracedTransport) Send(to types.ReplicaID, m types.Message) error {
	t0 := now()
	err := tt.inner.Send(to, m)
	tt.count(t0)
	return err
}

func (tt *tracedTransport) SendClient(c types.ClientID, m types.Message) error {
	t0 := now()
	err := tt.inner.SendClient(c, m)
	tt.count(t0)
	if reply, ok := m.(*types.ClientReply); ok {
		tt.r.onReply(reply, t0)
	}
	return err
}

func (tt *tracedTransport) count(t0 int64) {
	t := tt.r.t
	t.lifeSends.Add(1)
	if t.window.Load() {
		t.sends.Add(1)
		t.sendUs.add(float64(now()-t0) / 1e3)
	}
}

func (tt *tracedTransport) Close() error { return tt.inner.Close() }

// onReply marks the first reply of a registered batch and the reply of a
// sampled transaction.
func (r *repTrace) onReply(reply *types.ClientReply, at int64) {
	k := txnKey{reply.Client, reply.Seq}
	r.mu.Lock()
	if rec := r.firstTxn[k]; rec != nil {
		rec.firstAck = at
		delete(r.firstTxn, k)
	}
	r.mu.Unlock()
	r.t.withSpan(reply.Client, reply.Seq, func(s *span) { setIf0(&s.ack[r.id], at) })
}

type tracedEndpoint struct {
	inner transport.Endpoint
	r     *repTrace
}

func (t *tracer) wrapEndpoint(id types.ReplicaID, ep transport.Endpoint) transport.Endpoint {
	return &tracedEndpoint{inner: ep, r: t.reps[id]}
}

func (te *tracedEndpoint) DeliverReplica(from types.ReplicaID, m types.Message) {
	te.r.stamp(m)
	te.inner.DeliverReplica(from, m)
}

func (te *tracedEndpoint) DeliverClient(from types.ClientID, m types.Message) {
	if req, ok := m.(*types.ClientRequest); ok && primary(req.Tx.Client) == te.r.id {
		at := now()
		te.r.t.withSpan(req.Tx.Client, req.Tx.Seq, func(s *span) { setIf0(&s.ingress, at) })
	}
	te.r.stamp(m)
	te.inner.DeliverClient(from, m)
}

// tracedClientTransport sees a session's requests leave.
type tracedClientTransport struct {
	inner transport.Transport
	t     *tracer
}

func (t *tracer) wrapClientTransport(tr transport.Transport) transport.Transport {
	return &tracedClientTransport{inner: tr, t: t}
}

func (ct *tracedClientTransport) Send(to types.ReplicaID, m types.Message) error {
	t := ct.t
	t.lifeSends.Add(1)
	if t.window.Load() {
		t.clientSends.Add(1)
	}
	if req, ok := m.(*types.ClientRequest); ok {
		at := now()
		t.withSpan(req.Tx.Client, req.Tx.Seq, func(s *span) { setIf0(&s.sent, at) })
	}
	return ct.inner.Send(to, m)
}

func (ct *tracedClientTransport) SendClient(c types.ClientID, m types.Message) error {
	return ct.inner.SendClient(c, m)
}

func (ct *tracedClientTransport) Close() error { return ct.inner.Close() }

// tracedClientEndpoint sees replies arrive at a session, in the order its
// event loop will process them, so the f+1-th distinct replica is the one
// that completes the request.
type tracedClientEndpoint struct {
	inner transport.Endpoint
	t     *tracer
}

func (t *tracer) wrapClientEndpoint(ep transport.Endpoint) transport.Endpoint {
	return &tracedClientEndpoint{inner: ep, t: t}
}

func (ce *tracedClientEndpoint) DeliverReplica(from types.ReplicaID, m types.Message) {
	if reply, ok := m.(*types.ClientReply); ok && int(from) < replicas {
		at := now()
		ce.t.withSpan(reply.Client, reply.Seq, func(s *span) {
			s.replied |= 1 << from
			if s.arrive == 0 && bits.OnesCount32(s.replied) == quorumReplies {
				s.arrive, s.from = at, from
			}
		})
	}
	ce.inner.DeliverReplica(from, m)
}

func (ce *tracedClientEndpoint) DeliverClient(from types.ClientID, m types.Message) {
	ce.inner.DeliverClient(from, m)
}

// ---------------------------------------------------------------------------
// Authenticator
// ---------------------------------------------------------------------------

type tracedAuth struct {
	inner crypto.Authenticator
	t     *tracer
}

type tagAppender struct {
	a crypto.TagAppender
	t *tracer
}

type batchVerifier struct {
	a crypto.BatchAuthenticator
	t *tracer
}

// wrapAuth returns the traced authenticator with exactly the optional
// interfaces a implements.
func (t *tracer) wrapAuth(a crypto.Authenticator) crypto.Authenticator {
	base := &tracedAuth{inner: a, t: t}
	ta, hasTA := a.(crypto.TagAppender)
	ba, hasBA := a.(crypto.BatchAuthenticator)
	switch {
	case hasTA && hasBA:
		return struct {
			*tracedAuth
			tagAppender
			batchVerifier
		}{base, tagAppender{ta, t}, batchVerifier{ba, t}}
	case hasTA:
		return struct {
			*tracedAuth
			tagAppender
		}{base, tagAppender{ta, t}}
	case hasBA:
		return struct {
			*tracedAuth
			batchVerifier
		}{base, batchVerifier{ba, t}}
	}
	return base
}

func (t *tracer) cryptoOp(ns *atomic.Int64, ops *atomic.Int64, n int, t0 int64) {
	if t.window.Load() {
		ns.Add(now() - t0)
		ops.Add(int64(n))
	}
}

func (a *tracedAuth) Scheme() crypto.Scheme { return a.inner.Scheme() }

func (a *tracedAuth) Tag(to uint32, payload []byte) []byte {
	t0 := now()
	tag := a.inner.Tag(to, payload)
	a.t.cryptoOp(&a.t.tagNs, &a.t.tags, 1, t0)
	return tag
}

func (a *tracedAuth) Verify(from uint32, payload, tag []byte) bool {
	t0 := now()
	ok := a.inner.Verify(from, payload, tag)
	a.t.cryptoOp(&a.t.verifyNs, &a.t.verifies, 1, t0)
	return ok
}

func (a tagAppender) AppendTag(to uint32, payload, dst []byte) []byte {
	t0 := now()
	out := a.a.AppendTag(to, payload, dst)
	a.t.cryptoOp(&a.t.tagNs, &a.t.tags, 1, t0)
	return out
}

func (a batchVerifier) VerifyBatch(from uint32, payloads, tags [][]byte, ok []bool) {
	t0 := now()
	a.a.VerifyBatch(from, payloads, tags, ok)
	a.t.cryptoOp(&a.t.verifyNs, &a.t.verifies, len(payloads), t0)
}

// ---------------------------------------------------------------------------
// Application
// ---------------------------------------------------------------------------

type tracedApp struct {
	inner exec.Application
	r     *repTrace
}

func (t *tracer) wrapApp(id types.ReplicaID, app exec.Application) exec.Application {
	base := &tracedApp{inner: app, r: t.reps[id]}
	if s, ok := app.(store.Snapshotter); ok {
		return struct {
			*tracedApp
			store.Snapshotter
		}{base, s}
	}
	return base
}

// Execute times each call and the wall time during which at least one
// call runs on this replica, whose ratio is the mean execution concurrency.
func (a *tracedApp) Execute(tx types.Transaction) []byte {
	r, t := a.r, a.r.t
	if !tx.IsNoOp() {
		t.lifeExecs.Add(1)
	}
	t0 := now()
	r.execMu.Lock()
	if r.execIn == 0 {
		r.execStart = t0
	}
	r.execIn++
	r.execMu.Unlock()
	out := a.inner.Execute(tx)
	t1 := now()
	r.execMu.Lock()
	r.execIn--
	if r.execIn == 0 && t.window.Load() {
		t.execBusyNs.Add(t1 - r.execStart)
	}
	r.execMu.Unlock()
	if t.window.Load() {
		t.execs.Add(1)
		t.execNs.Add(t1 - t0)
	}
	return out
}

func (a *tracedApp) Keys(tx types.Transaction, buf []types.StateKey) ([]types.StateKey, bool) {
	return a.inner.Keys(tx, buf)
}

func (a *tracedApp) StateDigest() types.Digest { return a.inner.StateDigest() }
