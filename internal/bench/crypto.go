package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// LiveCrypto measures the cost of frame authentication on a REAL cluster —
// 4 RCC replicas over loopback TCP, the exact stack cmd/rccnode deploys —
// rather than through the flow model's CPU-cost constants. It runs the same
// closed-loop YCSB workload under each scheme of Fig. 7 (right): no
// authentication, cached pairwise HMACs, and ED25519 dev-keyring signatures
// with the verify worker pool active. The
// relative column is the live counterpart of the paper's DS ≈ -86% /
// MAC ≈ -33% simulation (absolute ratios differ: loopback TCP has no WAN
// latency, and ED25519 differs from the paper's RSA/CMAC primitives).
func LiveCrypto() (*Table, error) {
	t := &Table{
		ID:    "crypto",
		Title: "live authentication cost (4 RCC replicas, loopback TCP, 2 closed-loop clients)",
		Header: []string{"auth", "txns", "elapsed-s", "txn/s", "vs-none",
			"pooled-frames"},
	}
	var baseline float64
	for _, scheme := range []crypto.Scheme{crypto.SchemeNone, crypto.SchemeMAC, crypto.SchemeDS} {
		rate, txns, elapsed, stats, err := runLiveCrypto(scheme)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", scheme, err)
		}
		rel := "-"
		if scheme == crypto.SchemeNone {
			baseline = rate
		} else if baseline > 0 {
			rel = fmt.Sprintf("%+.0f%%", (rate/baseline-1)*100)
		}
		t.Rows = append(t.Rows, []string{
			scheme.String(),
			fmt.Sprintf("%d", txns),
			fmt.Sprintf("%.2f", elapsed.Seconds()),
			fmt.Sprintf("%.0f", rate),
			rel,
			fmt.Sprintf("%d", stats.VerifiedFrames),
		})
	}
	return t, nil
}

// runLiveCrypto boots one 4-replica TCP cluster under scheme, drives the
// workload to completion, and returns the realized throughput plus replica
// 0's transport counters.
func runLiveCrypto(scheme crypto.Scheme) (rate float64, txns int, elapsed time.Duration, stats transport.TCPStats, err error) {
	const (
		n          = 4
		clients    = 2
		perClient  = 300
		secretSeed = "live-crypto-bench"
	)
	txns = clients * perClient
	opts := core.Options{
		N: n, BatchSize: 1, Window: 8, ProgressTimeout: 30 * time.Second,
		Auth: scheme, Secret: secretSeed,
	}
	cluster, err := core.NewCluster(opts)
	if err != nil {
		return 0, 0, 0, stats, err
	}
	defer cluster.Stop()
	cluster.Start()

	sessions := make([]*core.Session, clients)
	start := time.Now()
	for c := range sessions {
		cid := types.ClientID(c + 1)
		s, err := core.Connect(opts, cid, cluster.Peers(), 8, nil)
		if err != nil {
			return 0, 0, 0, stats, err
		}
		defer s.Stop()
		wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Seed: int64(cid)})
		for i := 0; i < perClient; i++ {
			s.Submit(wl.Next(cid))
		}
		sessions[c] = s
	}

	err = waitUntil(120*time.Second, func() bool {
		for _, s := range sessions {
			if len(s.Machine().Completions()) < perClient {
				return false
			}
		}
		return true
	})
	elapsed = time.Since(start)
	if err != nil {
		return 0, 0, 0, stats, fmt.Errorf("workload incomplete: %w", err)
	}
	stats = cluster.Replica(0).TCP.Stats()
	return float64(txns) / elapsed.Seconds(), txns, elapsed, stats, nil
}
