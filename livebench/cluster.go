package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// Deployment constants shared by every workload. Everything a workload does
// not name keeps cmd/rccnode's default: window 4, group-commit async WAL,
// snapshot every 1024 blocks, state sync on, exec workers = GOMAXPROCS,
// verify workers at the scheme's default, no digest cache.
const (
	replicas      = 4
	quorumReplies = (replicas-1)/3 + 1 // f+1 matching replies complete a request
	records       = ycsb.DefaultRecords
	rccWindow     = 4
	snapshotEvery = 1024
	secret        = "livebench"
	// retryTimeout is rccclient's retransmission timeout.
	retryTimeout = 2 * time.Second
)

// base anchors every timestamp the benchmark takes (monotonic clock).
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// cluster is one live n=4 RCC deployment over loopback TCP plus its client
// sessions.
type cluster struct {
	w        workload
	params   quorum.Params
	dir      string
	tr       *tracer // nil on untraced runs
	reps     []*runtime.Replica
	tcps     []*transport.TCP
	sessions []*session

	first     chan struct{} // closed at the first committed transaction
	firstOnce sync.Once
}

// startCluster boots the replicas the way cmd/rccnode does (core.BuildMachine,
// runtime.New, crypto.NewAuth, transport.NewTCP), connects them, and runs
// them. With tr set every seam is wrapped for tracing.
func startCluster(w workload, dir string, tr *tracer) (*cluster, error) {
	params, err := quorum.NewParams(replicas)
	if err != nil {
		return nil, err
	}
	c := &cluster{w: w, params: params, dir: dir, tr: tr, first: make(chan struct{})}
	for i := 0; i < replicas; i++ {
		if err := c.boot(types.ReplicaID(i)); err != nil {
			c.close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
	}
	peers := c.peers()
	for _, t := range c.tcps {
		t.SetPeers(peers)
	}
	for _, r := range c.reps {
		r.Run()
	}
	return c, nil
}

func (c *cluster) boot(id types.ReplicaID) error {
	machine, err := core.BuildMachine(&core.Options{
		N: replicas, Protocol: core.RCC, BatchSize: c.w.batch, Window: rccWindow,
	})
	if err != nil {
		return err
	}
	var app exec.Application = ycsb.NewStore(records)
	auth, err := crypto.NewAuth(c.w.scheme, crypto.PartyID(id), []byte(secret))
	if err != nil {
		return err
	}
	if c.tr != nil {
		machine = c.tr.wrapMachine(id, machine)
		app = c.tr.wrapApp(id, app)
		auth = c.tr.wrapAuth(auth)
	}
	rep, err := runtime.New(runtime.Config{
		ID:      id,
		Params:  c.params,
		Machine: machine,
		App:     app,
		Journal: true,
		DataDir: filepath.Join(c.dir, fmt.Sprintf("replica-%d", id)),
		Journaling: runtime.JournalOptions{
			Sync:          wal.SyncGroup,
			Async:         true,
			SnapshotEvery: snapshotEvery,
		},
		StateSync:      runtime.StateSyncOptions{Enabled: true, Source: types.NoReplica},
		ReplyToClients: true,
	})
	if err != nil {
		return err
	}
	var ep transport.Endpoint = rep
	if c.tr != nil {
		ep = c.tr.wrapEndpoint(id, rep)
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{Self: id, Listen: "127.0.0.1:0", Auth: auth}, ep)
	if err != nil {
		rep.Stop()
		return err
	}
	var t transport.Transport = tcp
	if c.tr != nil {
		t = c.tr.wrapTransport(id, tcp)
	}
	rep.Attach(t)
	c.reps = append(c.reps, rep)
	c.tcps = append(c.tcps, tcp)
	return nil
}

func (c *cluster) peers() map[types.ReplicaID]string {
	peers := make(map[types.ReplicaID]string, len(c.tcps))
	for i, t := range c.tcps {
		peers[types.ReplicaID(i)] = t.Addr()
	}
	return peers
}

// close stops the sessions and replicas, waits for them, and removes the
// data directories.
func (c *cluster) close() {
	for _, s := range c.sessions {
		s.stop()
	}
	var wg sync.WaitGroup
	for _, r := range c.reps {
		wg.Add(1)
		go func(r *runtime.Replica) {
			defer wg.Done()
			r.Stop()
		}(r)
	}
	wg.Wait()
	os.RemoveAll(c.dir)
}

// session is one client: an rccclient-style machine (broadcast, f+1
// matching replies, 2 s retransmission) on its own TCP transport. It keeps
// the issue and completion time of every request it was given, indexed by
// sequence number.
type session struct {
	id     types.ClientID
	mach   *client.Client
	proc   *runtime.ClientProc
	tcp    *transport.TCP
	tr     *tracer
	closed bool // closed loop: each completion submits the next request

	mu       sync.Mutex
	wl       *ycsb.Workload
	start    []int64 // issue time per seq-1: sent (closed loop) or due (open loop)
	done     []int64 // completion time per seq-1; 0 while outstanding
	finished int
	halted   bool // no further submissions
	onFirst  func()
	stopOnce sync.Once
}

// startSession connects client id to the cluster. A closed-loop session
// fills its window at once and refills it on every completion.
func (c *cluster) startSession(id types.ClientID, seed int64) error {
	mach := client.New(client.Config{Client: id, Broadcast: true, RetryTimeout: retryTimeout})
	mach.SetWindow(c.w.window)
	s := &session{
		id:      id,
		mach:    mach,
		tr:      c.tr,
		closed:  c.w.rate == 0,
		wl:      ycsb.NewWorkload(ycsb.WorkloadConfig{Records: records, Seed: seed}),
		onFirst: func() { c.firstOnce.Do(func() { close(c.first) }) },
	}
	s.proc = runtime.NewClient(id, c.params, mach)
	mach.SetCompletionHook(s.onComplete)
	auth, err := crypto.NewAuth(c.w.scheme, crypto.ClientPartyID(id), []byte(secret))
	if err != nil {
		return err
	}
	var ep transport.Endpoint = s.proc
	if c.tr != nil {
		auth = c.tr.wrapAuth(auth)
		ep = c.tr.wrapClientEndpoint(s.proc)
	}
	s.tcp, err = transport.NewTCP(transport.TCPConfig{
		IsClient: true, SelfClient: id, Peers: c.peers(), Auth: auth,
	}, ep)
	if err != nil {
		return err
	}
	var t transport.Transport = s.tcp
	if c.tr != nil {
		t = c.tr.wrapClientTransport(s.tcp)
	}
	s.proc.Attach(t)
	if s.closed {
		at := now()
		for i := 0; i < c.w.window; i++ {
			mach.Submit(s.next(at))
		}
	}
	s.proc.Run()
	c.sessions = append(c.sessions, s)
	return nil
}

// next generates the session's next transaction and records its issue time.
func (s *session) next(at int64) types.Transaction {
	s.mu.Lock()
	tx := s.wl.Next(s.id)
	s.start = append(s.start, at)
	s.done = append(s.done, 0)
	s.mu.Unlock()
	s.tr.begin(s.id, tx.Seq, at)
	return tx
}

// submitDue hands an open-loop request, due at due, to the client's event
// loop. It reports false once the session halted.
func (s *session) submitDue(due int64) bool {
	s.mu.Lock()
	halted := s.halted
	s.mu.Unlock()
	if halted {
		return false
	}
	s.proc.DeliverReplica(types.NoReplica, &client.Submission{Tx: s.next(due)})
	return true
}

// onComplete runs on the client's event loop for every f+1-certified reply.
func (s *session) onComplete(comp client.Completion) {
	at := now()
	s.tr.end(s.id, comp.Seq, at)
	s.mu.Lock()
	if i := int(comp.Seq) - 1; i >= 0 && i < len(s.done) && s.done[i] == 0 {
		s.done[i] = at
		s.finished++
	}
	refill := s.closed && !s.halted
	s.mu.Unlock()
	s.onFirst()
	if refill {
		// On the event loop already: Submit queues the request and the
		// machine's pump sends it right after this hook returns.
		s.mach.Submit(s.next(at))
	}
}

func (s *session) halt() {
	s.mu.Lock()
	s.halted = true
	s.mu.Unlock()
}

// outstanding returns how many issued requests have not completed.
func (s *session) outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.start) - s.finished
}

func (s *session) stop() { s.stopOnce.Do(s.proc.Stop) }
