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
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/types"
	"repro/internal/ycsb"
)

func main() {
	var (
		id       = flag.Uint("id", 1, "client ID (>= 1)")
		n        = flag.Int("n", 4, "number of replicas")
		peersArg = flag.String("peers", "", "comma-separated id=host:port replica map")
		txns     = flag.Int("txns", 100, "transactions to execute")
		window   = flag.Int("window", 8, "client pipeline depth")
		protoArg = flag.String("protocol", "rcc", "protocol the nodes run (zyzzyva collects all-n speculative responses)")
		authArg  = flag.String("auth", "", "frame authentication scheme: none, mac, ds (must match the nodes); default none")
		authKey  = flag.String("auth-secret", "", "shared deployment secret (must match the nodes)")
		timeout  = flag.Duration("timeout", 60*time.Second, "overall deadline")
	)
	flag.Parse()

	peers, err := core.ParsePeers(*peersArg)
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}
	scheme, err := crypto.ParseScheme(*authArg)
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}

	done := make(chan struct{})
	count := 0
	cid := types.ClientID(*id)
	sess, err := core.Connect(core.Options{
		N:        *n,
		Protocol: core.Protocol(*protoArg),
		Auth:     scheme,
		Secret:   *authKey,
	}, cid, peers, *window, func(client.Completion) {
		count++
		if count == *txns {
			close(done)
		}
	})
	if err != nil {
		log.Fatalf("rccclient: %v", err)
	}
	start := time.Now()
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Seed: int64(*id)})
	for i := 0; i < *txns; i++ {
		sess.Submit(wl.Next(cid))
	}
	select {
	case <-done:
	case <-time.After(*timeout):
		log.Fatalf("rccclient: deadline exceeded with %d/%d complete", len(sess.Machine().Completions()), *txns)
	}
	elapsed := time.Since(start)
	sess.Stop()

	mach := sess.Machine()
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
