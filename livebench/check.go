package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ledger"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// verify is the run's correctness check, made after the drain:
//   - every replica reaches the same ledger height, head hash, and
//     StateDigest, with no durability error;
//   - no transport counted an authentication, decode, or encode error;
//   - every acknowledged (client, seq) appears exactly once in the ledger,
//     and no transaction appears twice;
//   - re-executing the ledger on a fresh store reproduces every block's
//     state hash.
func (c *cluster) verify() error {
	if err := c.awaitConvergence(10 * time.Second); err != nil {
		return err
	}
	type tip struct {
		height uint64
		head   types.Digest
		state  types.Digest
	}
	var tips []tip
	for i, r := range c.reps {
		if err := r.DurabilityErr(); err != nil {
			return fmt.Errorf("replica %d: durability: %w", i, err)
		}
		var t tip
		if !r.Inspect(func() {
			t.height, t.head = r.Ledger().Tip()
			t.state = r.StateDigest()
		}) {
			return fmt.Errorf("replica %d stopped before inspection", i)
		}
		if len(tips) > 0 && t != tips[0] {
			return fmt.Errorf("replica %d diverged: height %d head %v state %v, replica 0: height %d head %v state %v",
				i, t.height, t.head, t.state, tips[0].height, tips[0].head, tips[0].state)
		}
		tips = append(tips, t)
	}
	for i, t := range c.tcps {
		if st := t.Stats(); st.AuthRejects+st.DecodeErrs+st.EncodeErrs > 0 {
			return fmt.Errorf("replica %d transport: %d auth rejects, %d decode errors, %d encode errors",
				i, st.AuthRejects, st.DecodeErrs, st.EncodeErrs)
		}
	}
	for _, s := range c.sessions {
		if st := s.tcp.Stats(); st.AuthRejects+st.DecodeErrs+st.EncodeErrs > 0 {
			return fmt.Errorf("client %d transport: %d auth rejects, %d decode errors, %d encode errors",
				s.id, st.AuthRejects, st.DecodeErrs, st.EncodeErrs)
		}
	}
	l := c.reps[0].Ledger()
	if err := l.Verify(); err != nil {
		return fmt.Errorf("replica 0 ledger: %w", err)
	}
	return c.checkLedger(l, tips[0].height)
}

// awaitConvergence waits until every replica holds the same ledger height
// for two consecutive polls: f+1 replies complete a request, so slower
// replicas may still be executing when the clients drained.
func (c *cluster) awaitConvergence(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	var last []uint64
	for {
		heights := make([]uint64, len(c.reps))
		same := true
		for i, r := range c.reps {
			heights[i] = r.Ledger().Height()
			same = same && heights[i] == heights[0]
		}
		if same && last != nil && last[0] == heights[0] {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge within %v: heights %v", limit, heights)
		}
		last = heights
		time.Sleep(100 * time.Millisecond)
	}
}

// checkLedger walks the chain once: it counts each (client, seq), re-executes
// every block on a reference store, and compares state hashes.
func (c *cluster) checkLedger(l *ledger.Ledger, height uint64) error {
	if l.Base() != 0 {
		return errors.New("replica 0 ledger does not start at genesis")
	}
	seen := make(map[types.ClientID][]uint8, len(c.sessions))
	for _, s := range c.sessions {
		seen[s.id] = make([]uint8, len(s.start))
	}
	ref := ycsb.NewStore(records)
	for h := uint64(0); h < height; h++ {
		blk := l.Get(h)
		if blk == nil {
			return fmt.Errorf("ledger block %d missing", h)
		}
		for i := range blk.Batch.Txns {
			tx := blk.Batch.Txns[i]
			if tx.IsNoOp() {
				continue
			}
			counts, ok := seen[tx.Client]
			if !ok || tx.Seq == 0 || tx.Seq > uint64(len(counts)) {
				return fmt.Errorf("block %d holds unknown transaction (client %d, seq %d)", h, tx.Client, tx.Seq)
			}
			counts[tx.Seq-1]++
			if counts[tx.Seq-1] > 1 {
				return fmt.Errorf("transaction (client %d, seq %d) is in the ledger twice", tx.Client, tx.Seq)
			}
			ref.Execute(tx)
		}
		if got := ref.StateDigest(); got != blk.StateHash {
			return fmt.Errorf("block %d: re-execution gives state %v, ledger says %v", h, got, blk.StateHash)
		}
	}
	for _, s := range c.sessions {
		counts := seen[s.id]
		s.mu.Lock()
		for i, at := range s.done {
			if at != 0 && counts[i] != 1 {
				s.mu.Unlock()
				return fmt.Errorf("acknowledged (client %d, seq %d) appears %d times in the ledger", s.id, i+1, counts[i])
			}
		}
		s.mu.Unlock()
	}
	return nil
}
