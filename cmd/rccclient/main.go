// Command rccclient drives a TCP deployment of rccnode replicas with a YCSB
// workload and reports throughput and latency.
//
//	rccclient -n 4 -peers 0=:7000,1=:7001,2=:7002,3=:7003 -txns 1000
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

func parsePeers(s string) (map[types.ReplicaID]string, error) {
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

// buildAuth resolves the -auth / -auth-secret flags into an authenticator.
func buildAuth(schemeArg, secret string, party uint32) (crypto.Authenticator, error) {
	scheme, err := crypto.ParseScheme(schemeArg)
	if err != nil {
		return nil, err
	}
	if scheme == crypto.SchemeNone {
		return nil, nil
	}
	return crypto.NewAuth(scheme, party, []byte(secret))
}

func main() {
	var (
		id       = flag.Uint("id", 1, "client ID (>= 1)")
		n        = flag.Int("n", 4, "number of replicas")
		peersArg = flag.String("peers", "", "comma-separated id=host:port replica map")
		txns     = flag.Int("txns", 100, "transactions to execute")
		window   = flag.Int("window", 8, "client pipeline depth")
		zyz      = flag.Bool("zyzzyva", false, "collect all-n speculative responses (Zyzzyva deployments)")
		authArg  = flag.String("auth", "", "frame authentication scheme: none, mac, ds (must match the nodes); default none")
		authKey  = flag.String("auth-secret", "", "shared deployment secret (must match the nodes)")
		timeout  = flag.Duration("timeout", 60*time.Second, "overall deadline")
		sendQ    = flag.Int("send-queue", 0, "per-replica outbound queue depth (0 = default 4096)")
		sendB    = flag.Int("send-batch-bytes", 0, "max encoded bytes coalesced per write syscall (0 = default 128 KiB)")
	)
	flag.Parse()

	peers, err := parsePeers(*peersArg)
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}
	params, err := quorum.NewParams(*n)
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}

	mode := client.ModePBFT
	if *zyz {
		mode = client.ModeZyzzyva
	}
	cid := types.ClientID(*id)
	mach := client.New(client.Config{
		Client:       cid,
		Mode:         mode,
		Broadcast:    true,
		RetryTimeout: 2 * time.Second,
	})
	mach.SetWindow(*window)

	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Seed: int64(*id)})
	for i := 0; i < *txns; i++ {
		mach.Submit(wl.Next(cid))
	}
	done := make(chan struct{}, 1)
	count := 0
	mach.SetCompletionHook(func(client.Completion) {
		count++
		if count == *txns {
			done <- struct{}{}
		}
	})

	proc := runtime.NewClient(cid, params, mach)
	auth, err := buildAuth(*authArg, *authKey, crypto.ClientPartyID(cid))
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{
		IsClient:      true,
		SelfClient:    cid,
		Peers:         peers,
		Auth:          auth,
		QueueDepth:    *sendQ,
		MaxBatchBytes: *sendB,
	}, proc)
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}
	proc.Attach(tcp)

	start := time.Now()
	proc.Run()
	select {
	case <-done:
	case <-time.After(*timeout):
		log.Fatalf("rccclient: deadline exceeded with %d/%d complete", count, *txns)
	}
	elapsed := time.Since(start)
	proc.Stop()

	comps := mach.Completions()
	lats := make([]time.Duration, 0, len(comps))
	for _, c := range comps {
		lats = append(lats, c.Latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var p50, p99 time.Duration
	if len(lats) > 0 {
		p50 = lats[len(lats)/2]
		p99 = lats[len(lats)*99/100]
	}
	fmt.Printf("completed %d txns in %v: %.0f txn/s, p50 %v, p99 %v, retries %d\n",
		len(comps), elapsed.Round(time.Millisecond),
		float64(len(comps))/elapsed.Seconds(), p50, p99, mach.Retries())
}
