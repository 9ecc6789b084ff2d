package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// syncCluster boots one durable, state-sync-enabled replica of a 4-node TCP
// cluster. Listen is the fixed address to bind (so a restarted replica is
// reachable at the address its peers already know).
func syncReplica(t *testing.T, base string, id types.ReplicaID, params quorum.Params,
	listen string, peers map[types.ReplicaID]string, snapshotEvery uint64) (*Replica, *transport.TCP) {
	t.Helper()
	rep, err := New(Config{
		ID:     id,
		Params: params,
		Machine: pbft.New(pbft.Config{
			BatchSize: 1, Window: 8,
			// Keep the cluster calm while a replica is down or syncing:
			// failure detection is not under test here.
			ProgressTimeout: 20 * time.Second,
		}),
		App:            ycsb.NewStore(1000),
		DataDir:        filepath.Join(base, fmt.Sprintf("replica-%d", id)),
		Journaling:     JournalOptions{SnapshotEvery: snapshotEvery},
		ReplyToClients: true,
		StateSync: StateSyncOptions{
			Enabled:     true,
			OfferWait:   150 * time.Millisecond,
			Retry:       300 * time.Millisecond,
			SteadyProbe: 500 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("replica %d: %v", id, err)
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{Self: id, Listen: listen}, rep)
	if err != nil {
		t.Fatalf("replica %d transport: %v", id, err)
	}
	if peers != nil {
		tcp.SetPeers(peers)
	}
	rep.Attach(tcp)
	return rep, tcp
}

func bootSyncCluster(t *testing.T, base string, snapshotEvery uint64) ([]*Replica, map[types.ReplicaID]string, quorum.Params) {
	t.Helper()
	const n = 4
	params, err := quorum.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, n)
	tcps := make([]*transport.TCP, n)
	peers := make(map[types.ReplicaID]string)
	for i := 0; i < n; i++ {
		id := types.ReplicaID(i)
		reps[i], tcps[i] = syncReplica(t, base, id, params, "127.0.0.1:0", nil, snapshotEvery)
		peers[id] = tcps[i].Addr()
	}
	for i := 0; i < n; i++ {
		tcps[i].SetPeers(peers)
		reps[i].Run()
	}
	return reps, peers, params
}

// TestStateSyncWipedReplicaOverTCP is the tentpole acceptance test: a
// 4-node TCP cluster decides real transactions, one replica's data dir is
// DELETED, the replica restarts empty, completes a snapshot + block-range
// state transfer over real sockets, and then participates in new decisions
// at the head — proven by stopping a second replica so no quorum can form
// without the recovered one's votes. (The kill-9-mid-transfer half of the
// contract is pinned at the store layer: TestInstallCrashBeforeCommitKeeps
// OldState / TestInstallCrashAfterCommitRollsForward in internal/store.)
func TestStateSyncWipedReplicaOverTCP(t *testing.T) {
	base := t.TempDir()
	// 14 txns with a snapshot every 4 blocks: the latest checkpoint sits at
	// height 12, so the transfer must ship the snapshot AND a 2-block
	// suffix.
	const txns = 14
	reps, peers, params := bootSyncCluster(t, base, 4)

	c := tcpClient(t, peers, params, 1, "", txns)
	waitFor(t, 30*time.Second, func() bool { return len(c.Completions()) == txns })
	for i, r := range reps {
		waitFor(t, 10*time.Second, func() bool { return r.Ledger().Height() == txns })
		if err := r.DurabilityErr(); err != nil {
			t.Fatalf("replica %d durability: %v", i, err)
		}
	}
	head := reps[0].Ledger().HeadHash()

	// Wipe replica 3: stop it, delete its entire data dir, restart empty
	// at the same address.
	reps[3].Stop()
	if err := os.RemoveAll(filepath.Join(base, "replica-3")); err != nil {
		t.Fatal(err)
	}
	rep3, _ := syncReplica(t, base, 3, params, peers[3], peers, 4)
	rep3.Run()
	t.Cleanup(rep3.Stop)

	// The wiped replica must reach the cluster head via state transfer:
	// snapshot chunks plus the block suffix, all over real sockets.
	waitFor(t, 30*time.Second, func() bool {
		return rep3.Ledger().Height() == txns && rep3.StateSync().Synced()
	})
	if got := rep3.Ledger().HeadHash(); got != head {
		t.Fatalf("synced head %v, want %v", got, head)
	}
	if err := rep3.Ledger().Verify(); err != nil {
		t.Fatalf("synced chain fails audit: %v", err)
	}
	st := rep3.StateSync().Stats()
	if st.Installs == 0 || st.InstalledSnaps == 0 {
		t.Fatalf("wiped replica did not install a snapshot transfer: %+v", st)
	}
	if st.ChunksFetched == 0 || st.BlocksFetched == 0 {
		t.Fatalf("transfer moved no data: %+v", st)
	}

	// Participation proof: with replica 1 stopped, a quorum (3 of 4) needs
	// the recovered replica's votes for every new decision.
	reps[1].Stop()
	c2 := tcpClient(t, peers, params, 2, "", 6)
	waitFor(t, 30*time.Second, func() bool { return len(c2.Completions()) == 6 })
	waitFor(t, 10*time.Second, func() bool { return rep3.Ledger().Height() == txns+6 })
	if err := rep3.DurabilityErr(); err != nil {
		t.Fatalf("recovered replica durability: %v", err)
	}
	if rep3.Ledger().HeadHash() != reps[0].Ledger().HeadHash() {
		t.Fatal("recovered replica diverged after rejoining")
	}

	// The wiped replica's store is rebased: it no longer materializes the
	// blocks the snapshot summarized, but serves and extends the chain.
	if baseH := rep3.Ledger().Base(); baseH == 0 {
		t.Fatal("wiped replica should have a rebased ledger (snapshot install)")
	}
}

// TestStateSyncLaggingReplicaOverTCP is the lag-behind variant: the replica
// keeps its disk, misses a stretch of decisions, and catches up with a
// block-range-only transfer (no snapshot install) before voting again.
func TestStateSyncLaggingReplicaOverTCP(t *testing.T) {
	base := t.TempDir()
	// SnapshotEvery=0: no checkpoints exist, so the transfer MUST take the
	// range-only path.
	reps, peers, params := bootSyncCluster(t, base, 0)

	c := tcpClient(t, peers, params, 1, "", 6)
	waitFor(t, 30*time.Second, func() bool { return len(c.Completions()) == 6 })
	for _, r := range reps {
		waitFor(t, 10*time.Second, func() bool { return r.Ledger().Height() == 6 })
	}

	// Replica 3 goes down but keeps its disk; the cluster decides on.
	reps[3].Stop()
	c2 := tcpClient(t, peers, params, 2, "", 8)
	waitFor(t, 30*time.Second, func() bool { return len(c2.Completions()) == 8 })

	rep3, _ := syncReplica(t, base, 3, params, peers[3], peers, 0)
	rep3.Run()
	t.Cleanup(rep3.Stop)

	waitFor(t, 30*time.Second, func() bool {
		return rep3.Ledger().Height() == 14 && rep3.StateSync().Synced()
	})
	st := rep3.StateSync().Stats()
	if st.Installs == 0 {
		t.Fatalf("lagging replica installed nothing: %+v", st)
	}
	if st.InstalledSnaps != 0 {
		t.Fatalf("lag-only catch-up should not ship a snapshot: %+v", st)
	}
	if st.BlocksFetched < 8 {
		t.Fatalf("expected >=8 blocks fetched, got %+v", st)
	}
	if rep3.Ledger().Base() != 0 {
		t.Fatal("lag-only catch-up must not rebase the ledger")
	}
	if rep3.Ledger().HeadHash() != reps[0].Ledger().HeadHash() {
		t.Fatal("lagging replica diverged after catch-up")
	}

	// And it votes: stop replica 1, new decisions need rep3.
	reps[1].Stop()
	c3 := tcpClient(t, peers, params, 3, "", 4)
	waitFor(t, 30*time.Second, func() bool { return len(c3.Completions()) == 4 })
	waitFor(t, 10*time.Second, func() bool { return rep3.Ledger().Height() == 18 })
}

var _ sm.StateSyncable = (*pbft.Instance)(nil) // the TCP tests rely on it
