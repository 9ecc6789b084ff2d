package flight

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordDumpRoundtrip(t *testing.T) {
	r := New(64)
	r.Record(2, SubPBFT, KViewChangeStart, 3, 7, 0, 0)
	r.Record(2, SubRCC, KInstanceDecide, 1, 0, 42, 0)
	r.Record(2, SubTransport, KDemote, 0, 0, 0, 3)

	snap := r.Dump(0)
	if len(snap.Events) != 3 || snap.Next != 3 || snap.FirstSeq != 0 {
		t.Fatalf("dump = %d events, cursor [%d,%d), want 3 events [0,3)", len(snap.Events), snap.FirstSeq, snap.Next)
	}
	e := snap.Events[0]
	if e.Replica != 2 || e.Sub != SubPBFT || e.Kind != KViewChangeStart || e.Instance != 3 || e.View != 7 {
		t.Fatalf("event 0 fields scrambled: %+v", e)
	}
	if e := snap.Events[2]; e.Kind != KDemote || e.Detail != 3 {
		t.Fatalf("event 2 fields scrambled: %+v", e)
	}
	// Monotone timestamps within one writer.
	if snap.Events[0].Mono > snap.Events[2].Mono {
		t.Fatalf("mono went backwards: %d > %d", snap.Events[0].Mono, snap.Events[2].Mono)
	}
}

func TestDumpSinceCursor(t *testing.T) {
	r := New(64)
	for i := 0; i < 5; i++ {
		r.Record(0, SubRCC, KInstanceDecide, 0, 0, uint64(i), 0)
	}
	first := r.Dump(0)
	if first.Next != 5 {
		t.Fatalf("cursor = %d, want 5", first.Next)
	}
	empty := r.Dump(first.Next)
	if len(empty.Events) != 0 || empty.Next != 5 {
		t.Fatalf("dump at head returned %d events, cursor %d", len(empty.Events), empty.Next)
	}
	r.Record(0, SubRCC, KWaveUnify, 0, 0, 9, 0)
	inc := r.Dump(first.Next)
	if len(inc.Events) != 1 || inc.Events[0].Seq != 9 || inc.Next != 6 {
		t.Fatalf("incremental dump = %+v", inc)
	}
}

func TestRingWraparound(t *testing.T) {
	r := New(16) // already a power of two
	for i := 0; i < 100; i++ {
		r.Record(0, SubRCC, KInstanceDecide, 0, 0, uint64(i), 0)
	}
	snap := r.Dump(0)
	if len(snap.Events) != 16 {
		t.Fatalf("wrapped ring dumped %d events, want 16", len(snap.Events))
	}
	if snap.FirstSeq != 84 || snap.Next != 100 {
		t.Fatalf("cursor window [%d,%d), want [84,100)", snap.FirstSeq, snap.Next)
	}
	for i, e := range snap.Events {
		if e.Seq != uint64(84+i) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, 84+i)
		}
	}
}

// TestConcurrentRecordDump hammers the ring from many writers while a
// reader dumps continuously: must be race-detector-clean and never yield a
// torn event (writer id and payload are packed redundantly and must agree).
func TestConcurrentRecordDump(t *testing.T) {
	r := New(256)
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for wr := 0; wr < writers; wr++ {
		go func(id uint16) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// seq and detail both carry the writer id so a torn slot
				// (one writer's seq, another's detail) is detectable.
				r.Record(id, SubTransport, KOverflowDrop, uint32(id), 0, uint64(id), uint64(id))
			}
		}(uint16(wr))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var since uint64
		for {
			snap := r.Dump(since)
			since = snap.Next
			for _, e := range snap.Events {
				if e.Seq != uint64(e.Replica) || e.Detail != uint64(e.Replica) || e.Instance != uint32(e.Replica) {
					t.Errorf("torn event: %+v", e)
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	if head := r.Head(); head != writers*perWriter {
		t.Fatalf("head = %d, want %d", head, writers*perWriter)
	}
}

func TestNilRecorderNoop(t *testing.T) {
	var r *Recorder
	r.Record(0, SubRCC, KVoid, 0, 0, 0, 0) // must not panic
	if r.Head() != 0 {
		t.Fatal("nil recorder has a head")
	}
	snap := r.Dump(0)
	if len(snap.Events) != 0 {
		t.Fatal("nil recorder dumped events")
	}
}

func TestBinaryRoundtrip(t *testing.T) {
	r := New(64)
	r.Record(1, SubStateSync, KOfferReject, 0, 0, 17, uint64(RejectDigest))
	r.Record(1, SubStore, KFsyncStall, 0, 0, 0, uint64(25*time.Millisecond))
	snap := r.Dump(0)
	snap.Replica = 1

	var buf bytes.Buffer
	if err := EncodeBinary(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replica != 1 || got.Next != snap.Next || got.AnchorWall != snap.AnchorWall || got.AnchorMono != snap.AnchorMono {
		t.Fatalf("header mismatch: %+v vs %+v", got, snap)
	}
	if len(got.Events) != 2 || got.Events[0] != snap.Events[0] || got.Events[1] != snap.Events[1] {
		t.Fatalf("events mismatch: %+v vs %+v", got.Events, snap.Events)
	}
	// Wall-time resolution must agree before and after the roundtrip.
	if !got.WallTime(got.Events[0]).Equal(snap.WallTime(snap.Events[0])) {
		t.Fatal("wall time drifted through the codec")
	}
}

func TestDecodeTruncatedTail(t *testing.T) {
	r := New(64)
	for i := 0; i < 4; i++ {
		r.Record(0, SubRCC, KInstanceDecide, 0, 0, uint64(i), 0)
	}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, r.Dump(0)); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-recordSize-7] // last record gone, third partial
	got, err := DecodeBinary(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 {
		t.Fatalf("truncated decode kept %d events, want 2", len(got.Events))
	}
	if _, err := DecodeBinary(bytes.NewReader([]byte("not a dump at all........"))); err == nil {
		t.Fatal("garbage decoded without error")
	}
	// A header claiming 2^32-1 records over an empty body must not size an
	// allocation from the claim.
	got, err = DecodeBinary(bytes.NewReader(hostileHeader(t)))
	if err != nil || len(got.Events) != 0 {
		t.Fatalf("hostile header decoded to %d events, err %v", len(got.Events), err)
	}
}

// hostileHeader is a record-less 56-byte dump whose count field claims
// 0xFFFFFFFF records.
func hostileHeader(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, Snapshot{Replica: 1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[48:], 0xFFFFFFFF)
	return b
}

// FuzzDecodeBinary: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to bytes that decode to the same snapshot.
func FuzzDecodeBinary(f *testing.F) {
	r := New(64)
	r.Record(1, SubStateSync, KOfferReject, 0, 0, 17, uint64(RejectDigest))
	r.Record(1, SubStore, KFsyncStall, 0, 0, 0, uint64(25*time.Millisecond))
	r.Record(2, SubTxn, KTxnAck, 3, 0, 9, 4)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, r.Dump(0)); err != nil {
		f.Fatal(err)
	}
	dump := buf.Bytes()
	f.Add(dump)
	f.Add(dump[:len(dump)-recordSize-7])
	f.Add([]byte("not a dump at all........"))
	f.Add(hostileHeader(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeBinary(&out, snap); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeBinary(&out)
		if err != nil {
			t.Fatalf("re-encoded dump does not decode: %v", err)
		}
		if !reflect.DeepEqual(snap, again) {
			t.Fatalf("decode -> encode -> decode changed the snapshot:\n%+v\n%+v", snap, again)
		}
	})
}

func TestWriteFileReadFile(t *testing.T) {
	r := New(64)
	r.Record(3, SubRuntime, KLoopStall, 0, 0, 0, uint64(120*time.Millisecond))
	path := filepath.Join(t.TempDir(), FileName)
	if err := r.WriteFile(path, 3); err != nil {
		t.Fatal(err)
	}
	// The tmp file must not linger.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("tmp file left behind")
	}
	snap, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Replica != 3 || len(snap.Events) != 1 || snap.Events[0].Kind != KLoopStall {
		t.Fatalf("file dump = %+v", snap)
	}
}

func TestWriteText(t *testing.T) {
	r := New(64)
	r.Record(0, SubPBFT, KSuspect, 2, 1, 0, 0)
	r.Record(0, SubStateSync, KSyncPhase, 0, 0, 0, uint64(PhaseSnapshot))
	var sb strings.Builder
	WriteText(&sb, r.Dump(0))
	out := sb.String()
	for _, want := range []string{"suspect", "sync_phase", "phase=snapshot", "next=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
}

func TestRecordAllocFree(t *testing.T) {
	r := New(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(1, SubRCC, KInstanceDecide, 2, 3, 4, 5)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}
