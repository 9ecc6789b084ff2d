package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// seedSegments builds a multi-segment log of n records and returns its
// segment files' bytes in index order.
func seedSegments(f *testing.F, n int) [][]byte {
	dir := f.TempDir()
	l, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 128})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.AppendNoSync([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	sort.Strings(paths)
	var segs [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		segs = append(segs, data)
	}
	if len(segs) < 3 {
		f.Fatalf("seed log has %d segments, want at least 3", len(segs))
	}
	return segs
}

// writeSegment stores data as a segment file named after the first index
// its header claims, or after fallback when it is too short to claim one.
func writeSegment(t *testing.T, dir string, data []byte, fallback uint64) {
	first := fallback
	if len(data) >= headerSize {
		first = binary.BigEndian.Uint64(data[8:headerSize])
	}
	name := fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayAll returns every record Replay streams, keyed by index.
func replayAll(t *testing.T, l *Log) map[uint64]string {
	got := make(map[uint64]string)
	if err := l.Replay(func(idx uint64, p []byte) error {
		if _, dup := got[idx]; dup {
			return fmt.Errorf("index %d replayed twice", idx)
		}
		got[idx] = string(p)
		return nil
	}); err != nil {
		t.Fatalf("replay of an opened log failed: %v", err)
	}
	return got
}

// FuzzOpenReplay: opening a directory of arbitrary segment bytes never
// panics. It either refuses the log with ErrCorrupt or yields a log whose
// Replay succeeds, and a reopen after Close replays the same records.
func FuzzOpenReplay(f *testing.F) {
	segs := seedSegments(f, 20)
	f.Add(segs[0], segs[1])
	// Torn tail: the last record of the last segment loses its end.
	f.Add(segs[0], segs[1][:len(segs[1])-4])
	// Torn frame header after the last record.
	f.Add(segs[0], append(append([]byte(nil), segs[1]...), 0, 0, 0))
	// Bit flip mid-segment, with intact records after it.
	flipped := append([]byte(nil), segs[0]...)
	flipped[headerSize+frameSize+2] ^= 0x40
	f.Add(flipped, segs[1])
	// Missing middle segment.
	f.Add(segs[0], segs[2])
	// A segment shorter than its header.
	f.Add(segs[0], segs[1][:headerSize-3])
	f.Fuzz(func(t *testing.T, first, second []byte) {
		dir := t.TempDir()
		writeSegment(t, dir, first, 1)
		if len(second) > 0 {
			writeSegment(t, dir, second, 1<<20)
		}
		l, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open failed with %v, want ErrCorrupt or success", err)
			}
			return
		}
		got := replayAll(t, l)
		last := l.LastIndex()
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		l2, err := Open(dir, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("reopen of a log that opened cleanly: %v", err)
		}
		defer l2.Close()
		if again := replayAll(t, l2); !reflect.DeepEqual(got, again) {
			t.Fatalf("replay changed across reopen: %d records, then %d", len(got), len(again))
		}
		if l2.LastIndex() != last {
			t.Fatalf("last index %d, then %d after reopen", last, l2.LastIndex())
		}
	})
}
