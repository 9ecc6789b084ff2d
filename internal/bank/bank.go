// Package bank implements the financial-service state machine of the
// paper's ordering-attack example (Example IV.1, Fig. 6): conditional
// transfers of the form
//
//	transfer(A, B, n, m) := if amount(A) > n then withdraw(A, m); deposit(B, m)
//
// whose outcomes depend on execution order, which is what a malicious
// primary exploits in an ordering attack and what RCC's deterministic
// unpredictable permutation ordering mitigates.
package bank

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Transfer is the conditional-transfer transaction payload.
type Transfer struct {
	From, To  string
	Threshold int64 // n: transfer only if amount(From) > n
	Amount    int64 // m
}

// Encode serializes the transfer into a Transaction.Op payload.
func (t Transfer) Encode() []byte {
	buf := make([]byte, 0, 32+len(t.From)+len(t.To))
	buf = appendString(buf, t.From)
	buf = appendString(buf, t.To)
	buf = binary.BigEndian.AppendUint64(buf, uint64(t.Threshold))
	return binary.BigEndian.AppendUint64(buf, uint64(t.Amount))
}

// DecodeTransfer parses a transfer payload.
func DecodeTransfer(op []byte) (Transfer, error) {
	var t Transfer
	var err error
	t.From, op, err = readString(op)
	if err != nil {
		return t, err
	}
	t.To, op, err = readString(op)
	if err != nil {
		return t, err
	}
	if len(op) < 16 {
		return t, fmt.Errorf("bank: short transfer payload")
	}
	t.Threshold = int64(binary.BigEndian.Uint64(op))
	t.Amount = int64(binary.BigEndian.Uint64(op[8:]))
	return t, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	if len(buf) < 2 {
		return "", nil, fmt.Errorf("bank: short string")
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if len(buf) < n {
		return "", nil, fmt.Errorf("bank: truncated string")
	}
	return string(buf[:n]), buf[n:], nil
}

// rawAccounts slices the From/To account names out of a transfer payload
// without allocating strings, mirroring DecodeTransfer's framing exactly:
// any payload DecodeTransfer rejects is rejected here too (and Execute
// leaves state untouched for those).
func rawAccounts(op []byte) (from, to []byte, ok bool) {
	if len(op) < 2 {
		return nil, nil, false
	}
	n := int(binary.BigEndian.Uint16(op))
	op = op[2:]
	if len(op) < n {
		return nil, nil, false
	}
	from, op = op[:n], op[n:]
	if len(op) < 2 {
		return nil, nil, false
	}
	n = int(binary.BigEndian.Uint16(op))
	op = op[2:]
	if len(op) < n+16 {
		return nil, nil, false
	}
	return from, op[:n], true
}

// shardCount is a power of two: accounts hash onto shards with the same
// FNV-1a hash that yields their conflict StateKey.
const shardCount = 64

type shard struct {
	mu sync.Mutex
	m  map[string]int64
}

// Bank is a deterministic account store implementing exec.Application.
// Balances are sharded by account-name hash with per-shard locks and the
// applied counter is atomic, so Execute is safe under concurrent calls for
// transactions with disjoint account footprints and Balance under
// concurrent execution. The engine itself executes serially in batch
// order.
type Bank struct {
	shards  [shardCount]shard
	applied atomic.Uint64
}

func shardOf(k types.StateKey) int { return int(uint64(k) & (shardCount - 1)) }

// New creates a bank with the given opening balances.
func New(opening map[string]int64) *Bank {
	b := &Bank{}
	for i := range b.shards {
		b.shards[i].m = make(map[string]int64)
	}
	for k, v := range opening {
		b.shards[shardOf(types.KeyString(k))].m[k] = v
	}
	return b
}

// Balance returns the balance of account a (0 when absent).
func (b *Bank) Balance(a string) int64 {
	s := &b.shards[shardOf(types.KeyString(a))]
	s.mu.Lock()
	v := s.m[a]
	s.mu.Unlock()
	return v
}

// Keys declares a transfer's conflict footprint: the From and To accounts.
// Payloads DecodeTransfer would reject execute statelessly (result 0xff,
// no counter bump), so they declare an empty footprint.
func (b *Bank) Keys(tx types.Transaction, buf []types.StateKey) ([]types.StateKey, bool) {
	if tx.IsNoOp() {
		return buf, true
	}
	from, to, ok := rawAccounts(tx.Op)
	if !ok {
		return buf, true // stateless rejection: conflicts with nothing
	}
	return append(buf, types.KeyBytes(from), types.KeyBytes(to)), true
}

// Execute applies one transfer transaction. The result byte reports whether
// the conditional fired (1) or not (0). Concurrent calls are safe for
// transfers with disjoint {From, To} footprints: the two shards involved
// are locked in index order.
func (b *Bank) Execute(tx types.Transaction) []byte {
	if tx.IsNoOp() {
		return nil
	}
	t, err := DecodeTransfer(tx.Op)
	if err != nil {
		return []byte{0xff}
	}
	b.applied.Add(1)
	si, sj := shardOf(types.KeyString(t.From)), shardOf(types.KeyString(t.To))
	if si > sj {
		si, sj = sj, si
	}
	b.shards[si].mu.Lock()
	if sj != si {
		b.shards[sj].mu.Lock()
	}
	from := &b.shards[shardOf(types.KeyString(t.From))]
	out := byte(0)
	if from.m[t.From] > t.Threshold {
		from.m[t.From] -= t.Amount
		b.shards[shardOf(types.KeyString(t.To))].m[t.To] += t.Amount
		out = 1
	}
	if sj != si {
		b.shards[sj].mu.Unlock()
	}
	b.shards[si].mu.Unlock()
	return []byte{out}
}

// sortedEntries collects every account across the shards in deterministic
// (sorted) order.
func (b *Bank) sortedEntries() ([]string, map[string]int64) {
	all := make(map[string]int64)
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		for k, v := range s.m {
			all[k] = v
		}
		s.mu.Unlock()
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	return names, all
}

// Snapshot serializes the balances and the applied-transfer counter in
// deterministic (sorted) order for checkpoint persistence
// (store.Snapshotter). The format is unchanged from the unsharded bank.
func (b *Bank) Snapshot() []byte {
	names, all := b.sortedEntries()
	buf := make([]byte, 0, 16+24*len(names))
	buf = binary.BigEndian.AppendUint64(buf, b.applied.Load())
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(names)))
	for _, k := range names {
		buf = appendString(buf, k)
		buf = binary.BigEndian.AppendUint64(buf, uint64(all[k]))
	}
	return buf
}

// Restore replaces the bank state with a Snapshot image
// (store.Snapshotter).
func (b *Bank) Restore(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("bank: short snapshot: %d bytes", len(data))
	}
	applied := binary.BigEndian.Uint64(data)
	n := int(binary.BigEndian.Uint32(data[8:]))
	data = data[12:]
	balances := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k, rest, err := readString(data)
		if err != nil {
			return fmt.Errorf("bank: snapshot account %d: %w", i, err)
		}
		if len(rest) < 8 {
			return fmt.Errorf("bank: snapshot truncated at account %d", i)
		}
		balances[k] = int64(binary.BigEndian.Uint64(rest))
		data = rest[8:]
	}
	if len(data) != 0 {
		return fmt.Errorf("bank: %d trailing snapshot bytes", len(data))
	}
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		s.m = make(map[string]int64)
		s.mu.Unlock()
	}
	for k, v := range balances {
		s := &b.shards[shardOf(types.KeyString(k))]
		s.mu.Lock()
		s.m[k] = v
		s.mu.Unlock()
	}
	b.applied.Store(applied)
	return nil
}

// StateDigest hashes all balances in deterministic (sorted) order. The
// digest is byte-identical to the unsharded bank's.
func (b *Bank) StateDigest() types.Digest {
	names, all := b.sortedEntries()
	buf := make([]byte, 0, 16*len(names))
	for _, k := range names {
		buf = appendString(buf, k)
		buf = binary.BigEndian.AppendUint64(buf, uint64(all[k]))
	}
	return types.Hash(buf)
}
