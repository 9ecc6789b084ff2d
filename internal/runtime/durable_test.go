package runtime

import (
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

// durableCluster builds an n-replica in-memory deployment whose replicas
// journal through the durable store under base/replica-i, with jo's
// tunables on top of group commit.
func durableCluster(t *testing.T, n int, base string, jo JournalOptions, machine func() sm.Machine) ([]*Replica, *transport.Memory) {
	t.Helper()
	params, err := quorum.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	hub := transport.NewMemory()
	reps := make([]*Replica, n)
	for i := 0; i < n; i++ {
		reps[i], err = New(Config{
			ID:             types.ReplicaID(i),
			Params:         params,
			Machine:        machine(),
			App:            ycsb.NewStore(1000),
			DataDir:        filepath.Join(base, "replica-"+string(rune('0'+i))),
			Journaling:     jo,
			ReplyToClients: true,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		reps[i].Attach(hub.AttachReplica(types.ReplicaID(i), reps[i]))
	}
	for _, r := range reps {
		r.Run()
	}
	return reps, hub
}

// assertAckedDurable checks acked⇒durable on a live cluster: a client
// completion needs f+1 matching replies, and a replica replies only once
// its WAL reports the block durable, so at least f+1 replicas' durable
// index must cover the first acked blocks (one single-txn block per
// completion; block h is WAL record h+1).
func assertAckedDurable(t *testing.T, reps []*Replica, acked int) {
	t.Helper()
	covered := 0
	for _, r := range reps {
		if r.Durable().WAL().DurableIndex() >= uint64(acked) {
			covered++
		}
	}
	if f := reps[0].cfg.Params.F; covered < f+1 {
		t.Fatalf("%d acked blocks durable on only %d replicas, want f+1 = %d", acked, covered, f+1)
	}
}

func stopAll(reps []*Replica, hub *transport.Memory) {
	for i, r := range reps {
		hub.Detach(types.ReplicaID(i))
		r.Stop()
	}
}

// TestReplicaRestartResumesFromDisk is the acceptance scenario of the
// durable storage subsystem: stop a replica after N decided blocks,
// construct a fresh one on the same data dir, and observe it resume at
// ledger height N with an identical head hash and application state digest
// — no state transfer from peers involved.
func TestReplicaRestartResumesFromDisk(t *testing.T) {
	base := t.TempDir()
	const txns = 6
	reps, hub := durableCluster(t, 4, base, JournalOptions{}, func() sm.Machine {
		return pbft.New(pbft.Config{BatchSize: 1, Window: 4})
	})
	c := runClient(t, hub, reps[0].cfg.Params, 1, txns)
	waitFor(t, 10*time.Second, func() bool { return len(c.Completions()) == txns })
	assertAckedDurable(t, reps, txns)
	for i, r := range reps {
		waitFor(t, 5*time.Second, func() bool { return r.Ledger().Height() == txns })
		if err := r.DurabilityErr(); err != nil {
			t.Fatalf("replica %d durability: %v", i, err)
		}
	}

	type preCrash struct {
		height uint64
		head   types.Digest
		state  types.Digest
	}
	before := make([]preCrash, len(reps))
	stopAll(reps, hub)
	for i, r := range reps {
		before[i] = preCrash{r.Ledger().Height(), r.Ledger().Head().Hash(), r.StateDigest()}
	}

	// A fresh process on the same directories: fresh machines, fresh
	// (empty) applications — everything below must come from disk.
	params := reps[0].cfg.Params
	for i := 0; i < 4; i++ {
		r, err := New(Config{
			ID:      types.ReplicaID(i),
			Params:  params,
			Machine: pbft.New(pbft.Config{BatchSize: 1, Window: 4}),
			App:     ycsb.NewStore(1000),
			DataDir: filepath.Join(base, "replica-"+string(rune('0'+i))),
		})
		if err != nil {
			t.Fatalf("restart replica %d: %v", i, err)
		}
		if got := r.Ledger().Height(); got != before[i].height {
			t.Fatalf("replica %d resumed at height %d, want %d", i, got, before[i].height)
		}
		if r.Ledger().Head().Hash() != before[i].head {
			t.Fatalf("replica %d head hash differs after restart", i)
		}
		if r.StateDigest() != before[i].state {
			t.Fatalf("replica %d application state differs after restart", i)
		}
		if err := r.Ledger().Verify(); err != nil {
			t.Fatalf("replica %d restored chain fails audit: %v", i, err)
		}
		r.Stop()
	}
}

// TestClusterRestartServesNewTransactions restarts the whole deployment on
// its data dirs and checks it both resumes the journal and keeps deciding.
func TestClusterRestartServesNewTransactions(t *testing.T) {
	base := t.TempDir()
	mkMachine := func() sm.Machine { return pbft.New(pbft.Config{BatchSize: 1, Window: 4}) }
	reps, hub := durableCluster(t, 4, base, JournalOptions{}, mkMachine)
	c := runClient(t, hub, reps[0].cfg.Params, 1, 3)
	waitFor(t, 10*time.Second, func() bool { return len(c.Completions()) == 3 })
	assertAckedDurable(t, reps, 3)
	for _, r := range reps {
		waitFor(t, 5*time.Second, func() bool { return r.Ledger().Height() == 3 })
	}
	stopAll(reps, hub)

	reps2, hub2 := durableCluster(t, 4, base, JournalOptions{}, mkMachine)
	defer stopAll(reps2, hub2)
	for i, r := range reps2 {
		if r.Ledger().Height() != 3 {
			t.Fatalf("replica %d restarted at height %d, want 3", i, r.Ledger().Height())
		}
	}
	c2 := runClient(t, hub2, reps2[0].cfg.Params, 2, 2)
	waitFor(t, 10*time.Second, func() bool { return len(c2.Completions()) == 2 })
	assertAckedDurable(t, reps2, 5)
	for i, r := range reps2 {
		waitFor(t, 5*time.Second, func() bool { return r.Ledger().Height() == 5 })
		if err := r.Ledger().Verify(); err != nil {
			t.Fatalf("replica %d post-restart chain: %v", i, err)
		}
		if err := r.DurabilityErr(); err != nil {
			t.Fatalf("replica %d durability: %v", i, err)
		}
	}
}

// TestPeriodicSnapshotsPersistAndRestore checks SnapshotEvery produces
// checkpoints that a restart actually uses.
func TestPeriodicSnapshotsPersistAndRestore(t *testing.T) {
	base := t.TempDir()
	const txns = 5
	reps, hub := durableCluster(t, 4, base, JournalOptions{SnapshotEvery: 2}, func() sm.Machine {
		return pbft.New(pbft.Config{BatchSize: 1, Window: 4})
	})
	c := runClient(t, hub, reps[0].cfg.Params, 1, txns)
	waitFor(t, 10*time.Second, func() bool { return len(c.Completions()) == txns })
	assertAckedDurable(t, reps, txns)
	for _, r := range reps {
		waitFor(t, 5*time.Second, func() bool { return r.Ledger().Height() == txns })
	}
	state0 := func() types.Digest {
		var d types.Digest
		reps[0].Inspect(func() { d = reps[0].StateDigest() })
		return d
	}()
	stopAll(reps, hub)

	r, err := New(Config{
		ID:      0,
		Params:  reps[0].cfg.Params,
		Machine: pbft.New(pbft.Config{BatchSize: 1, Window: 4}),
		App:     ycsb.NewStore(1000),
		DataDir: filepath.Join(base, "replica-0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	snap := r.Durable().LatestSnapshot()
	if snap == nil {
		t.Fatal("no checkpoint persisted despite SnapshotEvery=2")
	}
	if snap.Height == 0 || snap.Height%2 != 0 {
		t.Fatalf("checkpoint at height %d, want a positive multiple of 2", snap.Height)
	}
	if r.StateDigest() != state0 {
		t.Fatal("state restored via checkpoint differs from pre-stop state")
	}
}
