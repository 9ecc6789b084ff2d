package runtime

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/sm"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// TestAuthMACOverTCP runs the full RCC stack over loopback TCP with
// pairwise MACs on every link, replicas and clients both — the `-auth mac`
// stack of cmd/rccnode.
func TestAuthMACOverTCP(t *testing.T) {
	params, _ := quorum.NewParams(4)
	peers, reps := tcpClusterWith(t, 4, macOpts("auth-mac-smoke"), func() sm.Machine {
		return rcc.New(rcc.Config{BatchSize: 1, Window: 4})
	})
	c := tcpClient(t, peers, params, 1, "auth-mac-smoke", 4)
	waitFor(t, 30*time.Second, func() bool { return len(c.Completions()) == 4 })
	assertLedgersAgree(t, reps)
}

// TestAuthDSOverTCP runs the same stack under ED25519 dev-keyring
// signatures with the verify pool active — the `-auth ds` stack, i.e. the authenticated configuration of Fig. 7
// (right) measured live.
func TestAuthDSOverTCP(t *testing.T) {
	opts := dsOpts("auth-ds-smoke")
	params, _ := quorum.NewParams(4)
	peers, reps := tcpClusterWith(t, 4, opts, func() sm.Machine {
		return rcc.New(rcc.Config{BatchSize: 1, Window: 4})
	})
	c1 := tcpClientWith(t, peers, params, 1, opts, disjointWrites(1, 100, 4))
	c2 := tcpClientWith(t, peers, params, 2, opts, disjointWrites(2, 200, 4))
	waitFor(t, 30*time.Second, func() bool {
		return len(c1.Completions()) == 4 && len(c2.Completions()) == 4
	})
	assertLedgersAgree(t, reps)
}

// TestDSVerifyPoolDeterminismOverTCP pins the acceptance property of
// pooled verification: a DS cluster must commit the same requests and reach
// the same state digest whether frames are verified by one worker or eight
// — the pool parallelizes crypto, never drops, duplicates or corrupts a
// request.
//
// Client result hashes are not compared across runs: ResultHash folds in
// the cumulative executed count, which includes RCC's no-op fills, and how
// many of those a run commits depends on timing.
func TestDSVerifyPoolDeterminismOverTCP(t *testing.T) {
	const txns = 5
	var wantState types.Digest
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := dsOpts("determinism-secret")
			opts.verifyWorkers = workers
			params, _ := quorum.NewParams(4)
			peers, reps := tcpClusterWith(t, 4, opts, func() sm.Machine {
				return rcc.New(rcc.Config{BatchSize: 1, Window: 4})
			})
			w1, w2 := disjointWrites(1, 100, txns), disjointWrites(2, 200, txns)
			c1 := tcpClientWith(t, peers, params, 1, opts, w1)
			c2 := tcpClientWith(t, peers, params, 2, opts, w2)
			waitFor(t, 30*time.Second, func() bool {
				return len(c1.Completions()) == txns && len(c2.Completions()) == txns
			})
			assertLedgersAgree(t, reps)

			// Stop the cluster before touching application state (the app
			// is single-threaded by contract). Every replica's ledger must
			// then hold exactly the submitted requests, each once — so both
			// worker counts commit the same set — and the state digests
			// must agree within the run and across worker counts.
			for _, r := range reps {
				r.Stop()
			}
			submitted := append(append([]types.Transaction(nil), w1...), w2...)
			for i, r := range reps {
				if err := committedExactlyOnce(r.Ledger(), submitted); err != nil {
					t.Fatalf("replica %d: %v", i, err)
				}
			}
			state := reps[0].StateDigest()
			for i, r := range reps {
				if got := r.StateDigest(); got != state {
					t.Fatalf("replica %d state digest diverges within run: %x != %x", i, got, state)
				}
			}
			if wantState == (types.Digest{}) {
				wantState = state
				return
			}
			if state != wantState {
				t.Fatalf("state digest differs across verify worker counts: %x != %x", state, wantState)
			}
		})
	}
}

// committedExactlyOnce checks that the ledger's non-no-op transactions are
// exactly want: every (client, seq, op) present once, nothing else.
func committedExactlyOnce(l *ledger.Ledger, want []types.Transaction) error {
	key := func(tx types.Transaction) string {
		return fmt.Sprintf("%d/%d/%x", tx.Client, tx.Seq, tx.Op)
	}
	count := make(map[string]int)
	for h := l.Base(); h < l.Height(); h++ {
		for _, tx := range l.Get(h).Batch.Txns {
			if !tx.IsNoOp() {
				count[key(tx)]++
			}
		}
	}
	for _, tx := range want {
		k := key(tx)
		if count[k] != 1 {
			return fmt.Errorf("request %s committed %d times, want once", k, count[k])
		}
		delete(count, k)
	}
	for k, n := range count {
		return fmt.Errorf("unsubmitted request %s committed %d times", k, n)
	}
	return nil
}

// disjointWrites builds txns explicit writes to keys [base, base+txns) —
// clients with different bases never touch the same record, so the final
// application state is independent of cross-client interleaving and can be
// compared bit-for-bit across runs.
func disjointWrites(id types.ClientID, base uint32, txns int) []types.Transaction {
	out := make([]types.Transaction, txns)
	for i := range out {
		out[i] = types.Transaction{
			Client: id,
			Seq:    uint64(i + 1),
			Op:     ycsb.EncodeWrite(base+uint32(i), []byte(fmt.Sprintf("v-%d-%d", id, i))),
		}
	}
	return out
}

// assertLedgersAgree verifies every replica's chain and that all heads
// match.
func assertLedgersAgree(t *testing.T, reps []*Replica) {
	t.Helper()
	h := reps[0].Ledger().Head()
	waitFor(t, 10*time.Second, func() bool {
		h = reps[0].Ledger().Head()
		for _, r := range reps[1:] {
			if r.Ledger().Head().Hash() != h.Hash() {
				return false
			}
		}
		return true
	})
	for i, r := range reps {
		if err := r.Ledger().Verify(); err != nil {
			t.Fatalf("replica %d ledger: %v", i, err)
		}
	}
}
