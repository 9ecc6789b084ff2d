// Package core is the high-level public API of the RCC reproduction and the
// one place that turns a deployment description into running processes:
// consensus machines, execution engine, blockchain ledger, authenticated
// TCP transports, and clients.
//
// Quickstart (see examples/quickstart):
//
//	cluster, _ := core.NewCluster(core.Options{N: 4, Protocol: core.RCC})
//	defer cluster.Stop()
//	cluster.Start()
//	cl := cluster.NewClient(1)
//	res, _ := cl.Execute(op, time.Second)
//
// Every replica the repository boots — a Cluster's, cmd/rccnode's, the
// chaos harness's, the live benchmarks' — is assembled by NewReplica, and
// every client session by Connect: the real protocol state machines
// (internal/rcc, internal/pbft, ...) on the goroutine runtime
// (internal/runtime) over TCP. A Cluster runs its replicas in this process
// on loopback ports.
package core

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/exec"
	"repro/internal/hotstuff"
	"repro/internal/ledger"
	"repro/internal/mirbft"
	"repro/internal/obs"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/runtime"
	"repro/internal/sbft"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
	"repro/internal/zyzzyva"
)

// Protocol selects the consensus protocol of a deployment.
type Protocol string

// Supported protocols. RCC, RCCZyzzyva, and RCCSBFT are the paper's RCC-P,
// RCC-Z, and RCC-S paradigm variants; the rest are the standalone
// baselines of the evaluation.
const (
	RCC        Protocol = "rcc"
	RCCZyzzyva Protocol = "rcc-z"
	RCCSBFT    Protocol = "rcc-s"
	PBFT       Protocol = "pbft"
	Zyzzyva    Protocol = "zyzzyva"
	SBFT       Protocol = "sbft"
	HotStuff   Protocol = "hotstuff"
	MirBFT     Protocol = "mirbft"
)

// State-transfer timing of every assembled replica: how long a probe
// gathers offers, how soon a failed pass retries, and how often a replica
// that believes it is current re-probes its peers.
const (
	syncOfferWait   = 150 * time.Millisecond
	syncRetry       = 300 * time.Millisecond
	syncSteadyProbe = 500 * time.Millisecond
)

// connectWait is how long Connect waits for every replica to register a
// client session.
const connectWait = 2 * time.Second

// Options describes a deployment. Every replica journals its decided
// blocks; with DataDir set the journal is durable and state transfer with
// checkpoint-boundary attestation is on.
type Options struct {
	// N is the number of replicas (n > 3f, so at least 4).
	N int
	// Protocol selects the consensus protocol (default RCC).
	Protocol Protocol
	// BatchSize groups client transactions per proposal (default 1 for
	// interactive use; benchmarks use the paper's 100).
	BatchSize int
	// Window is the out-of-order proposal window (default 4; 1 disables
	// out-of-order processing).
	Window int
	// ProgressTimeout is the failure-detection timeout (default 500 ms).
	ProgressTimeout time.Duration
	// App builds the per-replica application; nil selects a fresh YCSB
	// store with the paper's 500k records.
	App func() exec.Application
	// DataDir enables durable storage and state transfer. NewReplica
	// journals through a write-ahead log in DataDir itself; NewCluster
	// gives replica i the directory ReplicaDir(DataDir, i). A replica
	// restores height and application state from its directory on
	// construction, so one rebuilt on the same DataDir resumes where the
	// previous one stopped, and a wiped or lagging one fetches the
	// f+1-attested snapshot plus ledger suffix from its peers.
	DataDir string
	// Durability selects the WAL sync policy when DataDir is set
	// (default group commit).
	Durability wal.SyncPolicy
	// SnapshotEvery persists application checkpoints every N blocks when
	// DataDir is set (see runtime.JournalOptions.SnapshotEvery).
	SnapshotEvery uint64
	// PruneWAL reclaims WAL segments below each persisted checkpoint
	// (see runtime.JournalOptions.PruneWAL).
	PruneWAL bool
	// UnpredictableOrdering enables RCC's §IV permutation ordering.
	UnpredictableOrdering bool
	// Auth authenticates every frame between replicas and clients
	// (default none).
	Auth crypto.Scheme
	// Secret is the shared deployment secret: MAC pair keys or the ds dev
	// keyring derive from it, and so does the threshold scheme of
	// checkpoint attestation.
	Secret string
	// Metrics is the instrument catalog wired through the consensus
	// machine, runtime, and transport of every replica built from these
	// options. A Cluster shares the one catalog: stage histograms and
	// consensus counters aggregate across replicas, while per-replica
	// series carry a replica="ID" label. Nil disables instrumentation.
	Metrics *obs.NodeMetrics
	// Logf, when set, receives runtime and state-transfer progress lines.
	Logf func(format string, args ...any)
	// RetryTimeout is the client sessions' retransmission timeout
	// (default 1 s).
	RetryTimeout time.Duration
	// FlightMirror is the period of each replica's crash-safe flight-ring
	// mirror to <DataDir>/flight.bin when Metrics and DataDir are set
	// (default 2 s).
	FlightMirror time.Duration
	// Faults and Failpoints inject link and disk faults (the chaos
	// harness; NewCluster sets Faults to its own matrix). Nil injects
	// nothing.
	Faults     *transport.Faults
	Failpoints *wal.Failpoints
}

// ReplicaDir returns the data directory of replica i under base.
func ReplicaDir(base string, i int) string {
	return filepath.Join(base, fmt.Sprintf("replica-%d", i))
}

func (o *Options) defaults() error {
	if o.N < 4 {
		return fmt.Errorf("core: need at least 4 replicas, got %d", o.N)
	}
	if o.Protocol == "" {
		o.Protocol = RCC
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.ProgressTimeout <= 0 {
		o.ProgressTimeout = 500 * time.Millisecond
	}
	if o.App == nil {
		o.App = func() exec.Application { return ycsb.NewStore(ycsb.DefaultRecords) }
	}
	if o.RetryTimeout <= 0 {
		o.RetryTimeout = time.Second
	}
	return nil
}

// machine builds the consensus machine for one replica. RCC and MirBFT run
// one concurrent instance per replica.
func (o *Options) machine() (sm.Machine, error) {
	switch o.Protocol {
	case RCC, RCCZyzzyva, RCCSBFT:
		cfg := rcc.Config{
			BatchSize:             o.BatchSize,
			Window:                o.Window,
			ProgressTimeout:       o.ProgressTimeout,
			UnpredictableOrdering: o.UnpredictableOrdering,
			Metrics:               o.Metrics,
		}
		switch o.Protocol {
		case RCCZyzzyva:
			cfg.NewInstance = func(ic rcc.InstanceConfig) sm.Instance {
				return zyzzyva.New(zyzzyva.Config{
					Instance: ic.Instance, Primary: ic.Primary, FixedPrimary: true,
					Window: ic.Window, BatchSize: ic.BatchSize, ProgressTimeout: ic.ProgressTimeout,
				})
			}
		case RCCSBFT:
			cfg.NewInstance = func(ic rcc.InstanceConfig) sm.Instance {
				return sbft.New(sbft.Config{
					Instance: ic.Instance, Primary: ic.Primary, FixedPrimary: true,
					Window: ic.Window, BatchSize: ic.BatchSize, ProgressTimeout: ic.ProgressTimeout,
				})
			}
		}
		return rcc.New(cfg), nil
	case PBFT:
		return pbft.New(pbft.Config{
			BatchSize: o.BatchSize, Window: o.Window, ProgressTimeout: o.ProgressTimeout,
			Metrics: o.Metrics,
		}), nil
	case Zyzzyva:
		return zyzzyva.New(zyzzyva.Config{
			BatchSize: o.BatchSize, Window: o.Window, ProgressTimeout: o.ProgressTimeout,
		}), nil
	case SBFT:
		return sbft.New(sbft.Config{
			BatchSize: o.BatchSize, Window: o.Window, ProgressTimeout: o.ProgressTimeout,
		}), nil
	case HotStuff:
		return hotstuff.New(hotstuff.Config{
			BatchSize: o.BatchSize, ViewTimeout: o.ProgressTimeout,
		}), nil
	case MirBFT:
		return mirbft.New(mirbft.Config{
			BatchSize: o.BatchSize, Window: o.Window, ProgressTimeout: o.ProgressTimeout,
		}), nil
	}
	return nil, fmt.Errorf("core: unknown protocol %q", o.Protocol)
}

// auth builds the frame authenticator of one party (nil for no
// authentication).
func (o *Options) auth(party uint32) (crypto.Authenticator, error) {
	if o.Auth == crypto.SchemeNone {
		return nil, nil
	}
	return crypto.NewAuth(o.Auth, party, []byte(o.Secret))
}

// BuildMachine validates opts and builds one replica's consensus machine.
func BuildMachine(opts *Options) (sm.Machine, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	return opts.machine()
}

// ParsePeers parses a comma-separated id=host:port replica address map.
func ParsePeers(s string) (map[types.ReplicaID]string, error) {
	peers := make(map[types.ReplicaID]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		peers[types.ReplicaID(id)] = kv[1]
	}
	return peers, nil
}

// Replica is one assembled replica process: its consensus machine hosted
// by the runtime on a TCP transport.
type Replica struct {
	*runtime.Replica
	// Machine is the consensus machine (for introspection through
	// Inspect; e.g. cast to *rcc.Replica for Status).
	Machine sm.Machine
	// TCP is the replica's transport.
	TCP *transport.TCP
}

// NewReplica assembles replica id of the deployment opts describes,
// listening on listen (host:0 picks a free port; see TCP.Addr). It returns
// the replica not yet running: install the address book with
// TCP.SetPeers, then Run.
func NewReplica(opts Options, id types.ReplicaID, listen string) (*Replica, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	params, err := quorum.NewParams(opts.N)
	if err != nil {
		return nil, err
	}
	m, err := opts.machine()
	if err != nil {
		return nil, err
	}
	auth, err := opts.auth(crypto.PartyID(id))
	if err != nil {
		return nil, err
	}
	cfg := runtime.Config{
		ID:      id,
		Params:  params,
		Machine: m,
		App:     opts.App(),
		Journal: true,
		DataDir: opts.DataDir,
		Journaling: runtime.JournalOptions{
			Sync:          opts.Durability,
			SnapshotEvery: opts.SnapshotEvery,
			PruneWAL:      opts.PruneWAL,
			Failpoints:    opts.Failpoints,
		},
		Flight:         runtime.FlightOptions{MirrorInterval: opts.FlightMirror},
		ReplyToClients: true,
		Metrics:        opts.Metrics,
		Logf:           opts.Logf,
	}
	if opts.DataDir != "" {
		cfg.StateSync = runtime.StateSyncOptions{
			Enabled:      true,
			Source:       types.NoReplica,
			OfferWait:    syncOfferWait,
			Retry:        syncRetry,
			SteadyProbe:  syncSteadyProbe,
			AttestScheme: crypto.NewThresholdScheme(opts.N, params.F+1, []byte(opts.Secret)),
		}
	}
	rep, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	tcfg := transport.TCPConfig{Self: id, Listen: listen, Auth: auth, Faults: opts.Faults}
	if met := opts.Metrics; met != nil {
		tcfg.VerifyObserve = func(d time.Duration) { met.ObserveStage(obs.StageVerify, d) }
		tcfg.Flight = met.Flight
	}
	tcp, err := transport.NewTCP(tcfg, rep)
	if err != nil {
		rep.Stop()
		return nil, err
	}
	rep.Attach(tcp)
	return &Replica{Replica: rep, Machine: m, TCP: tcp}, nil
}

// Session is one connected client: a client machine hosted by the runtime
// on a TCP transport that dials every replica.
type Session struct {
	mach *client.Client
	proc *runtime.ClientProc
}

// Connect opens client id's session to the replicas at peers and runs it.
// The session keeps up to window transactions in flight, and onComplete
// (if set) receives every completion on the session's event loop. Zyzzyva
// deployments get Zyzzyva-mode clients (all-n response collection),
// everything else f+1 reply matching. Connect returns once every replica
// has registered the session, or after a short wait for the ones that do
// not answer.
func Connect(opts Options, id types.ClientID, peers map[types.ReplicaID]string, window int, onComplete func(client.Completion)) (*Session, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	params, err := quorum.NewParams(opts.N)
	if err != nil {
		return nil, err
	}
	auth, err := opts.auth(crypto.ClientPartyID(id))
	if err != nil {
		return nil, err
	}
	mode := client.ModePBFT
	if opts.Protocol == Zyzzyva {
		mode = client.ModeZyzzyva
	}
	mach := client.New(client.Config{Client: id, Mode: mode, Broadcast: true, RetryTimeout: opts.RetryTimeout})
	mach.SetWindow(window)
	mach.SetCompletionHook(onComplete)
	proc := runtime.NewClient(id, params, mach)
	tcp, err := transport.NewTCP(transport.TCPConfig{IsClient: true, SelfClient: id, Peers: peers, Auth: auth}, proc)
	if err != nil {
		return nil, err
	}
	proc.Attach(tcp)
	tcp.Connect(connectWait)
	proc.Run()
	return &Session{mach: mach, proc: proc}, nil
}

// Submit queues tx as the session's next transaction through the session's
// event loop, without waiting for it to complete (onComplete may call it to
// refill the window).
func (s *Session) Submit(tx types.Transaction) {
	s.proc.DeliverReplica(types.NoReplica, &client.Submission{Tx: tx})
}

// Machine returns the client machine (for Completions and Retries).
func (s *Session) Machine() *client.Client { return s.mach }

// Stop closes the session.
func (s *Session) Stop() { s.proc.Stop() }

// Cluster is a running deployment of N replicas in this process, on
// loopback TCP.
type Cluster struct {
	opts     Options
	faults   *transport.Faults
	replicas []*Replica
	peers    map[types.ReplicaID]string
	clients  []*Client
	nextCli  types.ClientID
	started  bool
}

// NewCluster assembles a cluster listening on loopback ports; call Start
// to run it.
func NewCluster(opts Options) (*Cluster, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:    opts,
		faults:  transport.NewFaults(),
		peers:   make(map[types.ReplicaID]string, opts.N),
		nextCli: 1,
	}
	for i := 0; i < opts.N; i++ {
		ro := opts
		ro.Faults = c.faults
		if opts.DataDir != "" {
			ro.DataDir = ReplicaDir(opts.DataDir, i)
		}
		r, err := NewReplica(ro, types.ReplicaID(i), "127.0.0.1:0")
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("core: replica %d: %w", i, err)
		}
		c.replicas = append(c.replicas, r)
		c.peers[types.ReplicaID(i)] = r.TCP.Addr()
	}
	for _, r := range c.replicas {
		r.TCP.SetPeers(c.peers)
	}
	return c, nil
}

// Start launches every replica.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	for _, r := range c.replicas {
		r.Run()
	}
}

// Stop shuts the whole deployment down: clients first, then every replica
// (each drains its journal before closing its transport).
func (c *Cluster) Stop() {
	for _, cl := range c.clients {
		cl.s.Stop()
	}
	var wg sync.WaitGroup
	for _, r := range c.replicas {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			r.Stop()
		}(r)
	}
	wg.Wait()
}

// Crash cuts replica i off from every other replica (a crash fault as its
// peers see it): the process keeps running and keeps its journal, but no
// protocol message reaches it or leaves it. Client links stay up.
func (c *Cluster) Crash(i int) { c.faults.Isolate(types.ReplicaID(i), c.opts.N) }

// Replica returns the i-th replica process.
func (c *Cluster) Replica(i int) *Replica { return c.replicas[i] }

// Peers returns the replicas' address book, for sessions opened with
// Connect.
func (c *Cluster) Peers() map[types.ReplicaID]string { return c.peers }

// Machine returns the i-th replica's consensus machine (for introspection;
// e.g. cast to *rcc.Replica for Status).
func (c *Cluster) Machine(i int) sm.Machine { return c.replicas[i].Machine }

// Ledger returns replica i's journal.
func (c *Cluster) Ledger(i int) *ledger.Ledger { return c.replicas[i].Ledger() }

// Client is a cluster client that awaits its completions one by one.
type Client struct {
	s       *Session
	id      types.ClientID
	done    chan client.Completion
	nextSeq uint64
}

// NewClient connects a new client to the cluster; pass 0 to auto-assign an
// identity.
func (c *Cluster) NewClient(id types.ClientID) *Client {
	if id == 0 {
		id = c.nextCli
	}
	if id >= c.nextCli {
		c.nextCli = id + 1
	}
	cl := &Client{id: id, done: make(chan client.Completion, 256)}
	s, err := Connect(c.opts, id, c.peers, 1, func(comp client.Completion) {
		select {
		case cl.done <- comp:
		default:
		}
	})
	if err != nil {
		// Unreachable: NewCluster already built every replica's
		// authenticator from these options, and a client transport does
		// not listen.
		panic(fmt.Sprintf("core: client %d: %v", id, err))
	}
	cl.s = s
	c.clients = append(c.clients, cl)
	return cl
}

// ID returns the client identity.
func (cl *Client) ID() types.ClientID { return cl.id }

// Submit queues op as the client's next transaction without waiting.
func (cl *Client) Submit(op []byte) uint64 {
	cl.nextSeq++
	cl.s.Submit(types.Transaction{Client: cl.id, Seq: cl.nextSeq, Op: op})
	return cl.nextSeq
}

// Await blocks until the next completion arrives or the timeout expires.
func (cl *Client) Await(timeout time.Duration) (client.Completion, error) {
	select {
	case comp := <-cl.done:
		return comp, nil
	case <-time.After(timeout):
		return client.Completion{}, fmt.Errorf("core: client %d timed out after %v", cl.id, timeout)
	}
}

// Execute submits op and waits for its f+1-certified outcome.
func (cl *Client) Execute(op []byte, timeout time.Duration) (client.Completion, error) {
	seq := cl.Submit(op)
	deadline := time.Now().Add(timeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return client.Completion{}, fmt.Errorf("core: transaction %d/%d timed out after %v", cl.id, seq, timeout)
		}
		comp, err := cl.Await(remain)
		if err != nil {
			return client.Completion{}, fmt.Errorf("core: transaction %d/%d timed out after %v", cl.id, seq, timeout)
		}
		if comp.Seq == seq {
			return comp, nil
		}
		// An earlier pipelined completion; keep draining.
	}
}
