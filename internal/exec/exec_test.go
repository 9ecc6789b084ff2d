package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bank"
	"repro/internal/ledger"
	"repro/internal/types"
	"repro/internal/ycsb"
)

func batch(txns ...types.Transaction) *types.Batch { return &types.Batch{Txns: txns} }

func wtx(c types.ClientID, seq uint64, key uint32) types.Transaction {
	return types.Transaction{Client: c, Seq: seq, Op: ycsb.EncodeWrite(key, []byte("v"))}
}

func TestExecuteBatchCountsAndHashes(t *testing.T) {
	e := NewEngine(ycsb.NewStore(100), nil)
	res := e.ExecuteBatch(batch(wtx(1, 1, 1), wtx(1, 2, 2)), ledger.Proof{Round: 1}, nil)
	if res.TxnExecuted != 2 || e.Executed() != 2 {
		t.Fatalf("executed %d/%d", res.TxnExecuted, e.Executed())
	}
	if res.ResultHash.IsZero() || res.StateHash.IsZero() {
		t.Fatal("zero hashes")
	}
}

// ycsbRounds builds a deterministic sequence of mixed read/write batches
// with a Zipfian key distribution.
func ycsbRounds(rounds, batchSize int) []*types.Batch {
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: 256, WriteRatio: 0.7, FieldLen: 8, Seed: 42})
	out := make([]*types.Batch, rounds)
	for r := range out {
		out[r] = wl.NextBatch(types.ClientID(r%13+1), batchSize)
	}
	return out
}

// bankRounds builds batches of conditional transfers over a small account
// set: heavy conflicts whose outcomes are order-sensitive (Example IV.1).
func bankRounds(rounds, batchSize int) []*types.Batch {
	rng := rand.New(rand.NewSource(7))
	out := make([]*types.Batch, rounds)
	seq := uint64(0)
	for r := range out {
		b := &types.Batch{Txns: make([]types.Transaction, 0, batchSize)}
		for i := 0; i < batchSize; i++ {
			seq++
			t := bank.Transfer{
				From:      fmt.Sprintf("acct-%02d", rng.Intn(48)),
				To:        fmt.Sprintf("acct-%02d", rng.Intn(48)),
				Threshold: int64(rng.Intn(200)),
				Amount:    int64(rng.Intn(50)),
			}
			b.Txns = append(b.Txns, types.Transaction{Client: 1, Seq: seq, Op: t.Encode()})
		}
		out[r] = b
	}
	return out
}

func bankOpening() map[string]int64 {
	opening := make(map[string]int64, 48)
	for i := 0; i < 48; i++ {
		opening[fmt.Sprintf("acct-%02d", i)] = 500
	}
	return opening
}

func TestIdenticalHistoriesProduceIdenticalResults(t *testing.T) {
	// §III-A determinism: same batches in the same order → same result
	// hashes and state hashes on independent replicas.
	var ycsbBatches []*types.Batch
	for r := 1; r <= 5; r++ {
		ycsbBatches = append(ycsbBatches, batch(
			wtx(1, uint64(r)*2-1, uint32(r)),
			wtx(2, uint64(r), uint32(r+50)),
		))
	}
	inputs := []struct {
		name    string
		app     func() Application
		batches []*types.Batch
	}{
		{"ycsb", func() Application { return ycsb.NewStore(100) }, ycsbBatches},
		{"bank", func() Application { return bank.New(bankOpening()) }, bankRounds(40, 96)},
	}
	for _, in := range inputs {
		mk := func() []Result {
			e := NewEngine(in.app(), nil)
			var out []Result
			for i, b := range in.batches {
				out = append(out, e.ExecuteBatch(b, ledger.Proof{Round: types.Round(i + 1)}, nil))
			}
			return out
		}
		a, b := mk(), mk()
		for i := range a {
			if a[i].ResultHash != b[i].ResultHash || a[i].StateHash != b[i].StateHash {
				t.Fatalf("%s: round %d diverges", in.name, i+1)
			}
		}
	}
}

func TestOrderSensitivity(t *testing.T) {
	// Different execution orders must yield different state hashes when
	// the transactions conflict (that is the whole point of consensus).
	e1 := NewEngine(ycsb.NewStore(100), nil)
	e2 := NewEngine(ycsb.NewStore(100), nil)
	a := types.Transaction{Client: 1, Seq: 1, Op: ycsb.EncodeWrite(7, []byte("from-a"))}
	b := types.Transaction{Client: 2, Seq: 1, Op: ycsb.EncodeWrite(7, []byte("from-b"))}
	r1 := e1.ExecuteBatch(batch(a, b), ledger.Proof{}, nil)
	r2 := e2.ExecuteBatch(batch(b, a), ledger.Proof{}, nil)
	if r1.StateHash == r2.StateHash {
		t.Fatal("conflicting orders produced identical state")
	}
}

func TestJournalling(t *testing.T) {
	l := ledger.New()
	e := NewEngine(ycsb.NewStore(100), InMemory(l))
	acked := false
	res := e.ExecuteBatch(batch(wtx(1, 1, 3)), ledger.Proof{Instance: 2, Round: 9}, func(_ Result, err error) {
		// Acked implies journalled: the block is in the chain by now.
		acked = err == nil && l.Height() == 1
	})
	if res.Block == nil {
		t.Fatal("no block journalled")
	}
	if !acked {
		t.Fatal("completion did not find the block journalled")
	}
	if l.Height() != 1 || l.Head().Proof.Round != 9 {
		t.Fatal("ledger state wrong")
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestNilJournalIsFine(t *testing.T) {
	e := NewEngine(ycsb.NewStore(10), nil)
	if res := e.ExecuteBatch(batch(wtx(1, 1, 1)), ledger.Proof{}, nil); res.Block != nil {
		t.Fatal("block produced without a journal")
	}
}

// asyncLedger wraps the in-memory ledger with a deferred-completion journal
// — the shape internal/store provides.
type asyncLedger struct {
	l       *ledger.Ledger
	pending []func(error)
}

func (a *asyncLedger) Append(b *types.Batch, p ledger.Proof, s types.Digest, done func(error)) *ledger.Block {
	blk := a.l.Append(b, p, s)
	a.pending = append(a.pending, done)
	return blk
}

func (a *asyncLedger) complete(err error) {
	for _, done := range a.pending {
		done(err)
	}
	a.pending = nil
}

func TestExecuteBatchDefersCompletion(t *testing.T) {
	aj := &asyncLedger{l: ledger.New()}
	e := NewEngine(ycsb.NewStore(100), aj)
	var got []Result
	res := e.ExecuteBatch(batch(wtx(1, 1, 3)), ledger.Proof{Round: 4}, func(r Result, err error) {
		if err != nil {
			t.Errorf("completion error: %v", err)
		}
		got = append(got, r)
	})
	if res.Block == nil {
		t.Fatal("no block journalled")
	}
	if len(got) != 0 {
		t.Fatal("completion fired before the journal reported durable")
	}
	aj.complete(nil)
	if len(got) != 1 {
		t.Fatalf("%d completions, want 1", len(got))
	}
	if got[0].ResultHash != res.ResultHash || got[0].Round != res.Round {
		t.Fatal("completion result differs from the returned result")
	}
	if got[0].Block != nil {
		t.Fatal("completion result must not carry the block")
	}
}

func TestExecuteBatchInMemoryJournalCompletesInline(t *testing.T) {
	l := ledger.New()
	e := NewEngine(ycsb.NewStore(100), InMemory(l))
	fired := false
	res := e.ExecuteBatch(batch(wtx(1, 1, 3)), ledger.Proof{Round: 1}, func(r Result, err error) {
		fired = true
		if err != nil {
			t.Errorf("completion error: %v", err)
		}
		if l.Height() != 1 {
			t.Error("completion fired before the block joined the chain")
		}
	})
	if !fired {
		t.Fatal("in-memory journal must complete inline")
	}
	if res.Block == nil || l.Height() != 1 {
		t.Fatal("block not journalled")
	}
}

func TestExecuteBatchNilJournalCompletesInline(t *testing.T) {
	e := NewEngine(ycsb.NewStore(10), nil)
	fired := false
	e.ExecuteBatch(batch(wtx(1, 1, 1)), ledger.Proof{}, func(Result, error) { fired = true })
	if !fired {
		t.Fatal("nil journal must complete inline")
	}
}

// TestNoOpFootprintsAreEmpty pins the Keys contract of both applications:
// no-ops and malformed payloads execute statelessly and declare empty
// footprints.
func TestNoOpFootprintsAreEmpty(t *testing.T) {
	apps := []Application{ycsb.NewStore(16), bank.New(nil)}
	for _, app := range apps {
		noop := types.NoOp()
		if keys, ok := app.Keys(noop, nil); !ok || len(keys) != 0 {
			t.Fatalf("%T: no-op footprint = %v, %v; want empty, true", app, keys, ok)
		}
		bad := types.Transaction{Client: 1, Seq: 1, Op: []byte{0xde}}
		if keys, ok := app.Keys(bad, nil); !ok || len(keys) != 0 {
			t.Fatalf("%T: malformed footprint = %v, %v; want empty, true", app, keys, ok)
		}
	}
}

// TestExecutedCounterRaceSafe drives the engine while another goroutine
// polls Executed() — the metrics scrape path — and a Restore lands between
// batches. Run under -race this pins the atomic counter.
func TestExecutedCounterRaceSafe(t *testing.T) {
	e := NewEngine(ycsb.NewStore(128), nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Executed()
			}
		}
	}()
	rounds := ycsbRounds(30, 64)
	for i, b := range rounds {
		e.ExecuteBatch(b, ledger.Proof{Round: types.Round(i + 1)}, nil)
		if i == len(rounds)/2 {
			e.Restore(e.Executed()) // restart replay primes the counter
		}
	}
	close(stop)
	wg.Wait()
	var want uint64
	for _, b := range rounds {
		want += uint64(len(b.Txns))
	}
	if got := e.Executed(); got != want {
		t.Fatalf("executed %d, want %d", got, want)
	}
}
