// Package ycsb implements the Yahoo Cloud Serving Benchmark workload the
// paper evaluates with (§V-A): a table with half a million active records
// where 90% of the transactions write/modify records, generated with the
// Blockbench-style Zipfian key distribution. Every replica is initialized
// with an identical copy of the table, and execution is deterministic.
package ycsb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/types"
)

// Defaults matching the paper's setup.
const (
	DefaultRecords     = 500_000
	DefaultWriteRatio  = 0.9
	DefaultFieldLength = 64 // bytes per record value
)

// Op codes encoded in Transaction.Op.
const (
	OpRead  byte = 1
	OpWrite byte = 2
)

// EncodeRead builds the Op payload for reading key.
func EncodeRead(key uint32) []byte {
	op := make([]byte, 5)
	op[0] = OpRead
	binary.BigEndian.PutUint32(op[1:], key)
	return op
}

// EncodeWrite builds the Op payload for writing value to key.
func EncodeWrite(key uint32, value []byte) []byte {
	op := make([]byte, 5, 5+len(value))
	op[0] = OpWrite
	binary.BigEndian.PutUint32(op[1:], key)
	return append(op, value...)
}

// DecodeOp splits an Op payload into opcode, key, and value.
func DecodeOp(op []byte) (code byte, key uint32, value []byte, err error) {
	if len(op) < 5 {
		return 0, 0, nil, fmt.Errorf("ycsb: short op: %d bytes", len(op))
	}
	return op[0], binary.BigEndian.Uint32(op[1:5]), op[5:], nil
}

// Store is the YCSB table: a deterministic key/value application.
// It implements exec.Application. Each transaction touches exactly one
// record — its conflict StateKey is the record index — so transactions on
// distinct records commute: concurrent Execute calls write disjoint slice
// slots and the operation counters/state accumulator are atomic (wrapping
// adds commute, so the totals are schedule-independent). The engine itself
// executes serially in batch order.
type Store struct {
	records  []uint64 // fingerprint of the value for each key (compact state)
	writes   atomic.Uint64
	reads    atomic.Uint64
	stateSum atomic.Uint64 // rolling state accumulator for cheap digests
}

// NewStore initializes a table with n records. All replicas call this with
// the same n and obtain identical state.
func NewStore(n int) *Store {
	s := &Store{records: make([]uint64, n)}
	var sum uint64
	for i := range s.records {
		s.records[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		sum += s.records[i]
	}
	s.stateSum.Store(sum)
	return s
}

// Len returns the number of records.
func (s *Store) Len() int { return len(s.records) }

// Reads and Writes report operation counts (for tests and stats).
func (s *Store) Reads() uint64  { return s.reads.Load() }
func (s *Store) Writes() uint64 { return s.writes.Load() }

// Keys declares a transaction's conflict footprint: the single record it
// reads or writes (reads conflict with writes to the same record — the
// read result depends on order). Malformed and unknown-opcode payloads
// execute statelessly (result 0xff), so they declare an empty footprint.
func (s *Store) Keys(tx types.Transaction, buf []types.StateKey) ([]types.StateKey, bool) {
	if tx.IsNoOp() {
		return buf, true
	}
	code, key, _, err := DecodeOp(tx.Op)
	if err != nil || len(s.records) == 0 || (code != OpRead && code != OpWrite) {
		return buf, true // stateless rejection: conflicts with nothing
	}
	return append(buf, types.StateKey(int(key)%len(s.records))), true
}

// Execute applies one YCSB transaction deterministically. Concurrent calls
// are safe for transactions on distinct records.
func (s *Store) Execute(tx types.Transaction) []byte {
	if tx.IsNoOp() {
		return nil
	}
	code, key, value, err := DecodeOp(tx.Op)
	if err != nil || len(s.records) == 0 {
		return []byte{0xff}
	}
	idx := int(key) % len(s.records)
	switch code {
	case OpRead:
		s.reads.Add(1)
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, s.records[idx])
		return out
	case OpWrite:
		s.writes.Add(1)
		old := s.records[idx]
		fp := fingerprint(value)
		s.records[idx] = fp
		s.stateSum.Add(fp - old)
		return []byte{1}
	default:
		return []byte{0xff}
	}
}

// StateDigest returns a digest of the table state. It hashes the rolling
// sum plus a sample of records, which is orders of magnitude cheaper than
// hashing 500k records per batch while still detecting divergence with high
// probability in tests.
func (s *Store) StateDigest() types.Digest {
	buf := make([]byte, 0, 8*18)
	buf = binary.BigEndian.AppendUint64(buf, s.stateSum.Load())
	buf = binary.BigEndian.AppendUint64(buf, s.writes.Load())
	if n := len(s.records); n > 0 {
		for i := 0; i < 16; i++ {
			buf = binary.BigEndian.AppendUint64(buf, s.records[(i*2654435761)%n])
		}
	}
	return types.Hash(buf)
}

// Snapshot serializes the full table for checkpoint persistence
// (store.Snapshotter): record count and fingerprints plus the operation
// counters, so a restored replica's StateDigest matches exactly.
func (s *Store) Snapshot() []byte {
	buf := make([]byte, 0, 8*(3+len(s.records)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(s.records)))
	for _, r := range s.records {
		buf = binary.BigEndian.AppendUint64(buf, r)
	}
	buf = binary.BigEndian.AppendUint64(buf, s.writes.Load())
	return binary.BigEndian.AppendUint64(buf, s.reads.Load())
}

// Restore replaces the table with a Snapshot image (store.Snapshotter).
func (s *Store) Restore(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("ycsb: short snapshot: %d bytes", len(data))
	}
	n := binary.BigEndian.Uint64(data)
	data = data[8:]
	if uint64(len(data)) != 8*(n+2) {
		return fmt.Errorf("ycsb: snapshot claims %d records but carries %d bytes", n, len(data))
	}
	records := make([]uint64, n)
	var sum uint64
	for i := range records {
		records[i] = binary.BigEndian.Uint64(data)
		sum += records[i]
		data = data[8:]
	}
	s.records = records
	s.stateSum.Store(sum)
	s.writes.Store(binary.BigEndian.Uint64(data))
	s.reads.Store(binary.BigEndian.Uint64(data[8:]))
	return nil
}

func fingerprint(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h | 1
}

// Workload generates YCSB client transactions with a Zipfian key
// distribution and the paper's 90% write ratio. It is deterministic for a
// given seed. Not safe for concurrent use.
type Workload struct {
	rng        *rand.Rand
	zipf       *rand.Zipf
	records    int
	writeRatio float64
	fieldLen   int
	nextSeq    map[types.ClientID]uint64
}

// WorkloadConfig parameterizes a Workload; zero values take the paper
// defaults.
type WorkloadConfig struct {
	Records    int
	WriteRatio float64
	FieldLen   int
	Theta      float64 // Zipfian skew (s parameter); default 1.01
	Seed       int64
}

// NewWorkload creates a workload generator.
func NewWorkload(cfg WorkloadConfig) *Workload {
	if cfg.Records <= 0 {
		cfg.Records = DefaultRecords
	}
	if cfg.WriteRatio <= 0 {
		cfg.WriteRatio = DefaultWriteRatio
	}
	if cfg.FieldLen <= 0 {
		cfg.FieldLen = DefaultFieldLength
	}
	if cfg.Theta <= 1 {
		cfg.Theta = 1.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Workload{
		rng:        rng,
		zipf:       rand.NewZipf(rng, cfg.Theta, 1, uint64(cfg.Records-1)),
		records:    cfg.Records,
		writeRatio: cfg.WriteRatio,
		fieldLen:   cfg.FieldLen,
		nextSeq:    make(map[types.ClientID]uint64),
	}
}

// Next generates the next transaction for client c.
func (w *Workload) Next(c types.ClientID) types.Transaction {
	w.nextSeq[c]++
	key := uint32(w.zipf.Uint64())
	var op []byte
	if w.rng.Float64() < w.writeRatio {
		value := make([]byte, w.fieldLen)
		w.rng.Read(value)
		op = EncodeWrite(key, value)
	} else {
		op = EncodeRead(key)
	}
	return types.Transaction{Client: c, Seq: w.nextSeq[c], Op: op}
}

// NextBatch generates a batch of size transactions for client c.
func (w *Workload) NextBatch(c types.ClientID, size int) *types.Batch {
	b := &types.Batch{Txns: make([]types.Transaction, 0, size)}
	for i := 0; i < size; i++ {
		b.Txns = append(b.Txns, w.Next(c))
	}
	return b
}
