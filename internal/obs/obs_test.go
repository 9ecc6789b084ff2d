package obs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs/flight"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", "help")
	g := reg.Gauge("g", "", "help")
	c.Add(3)
	c.Inc()
	g.Set(7)
	g.Add(-2)
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var m *NodeMetrics
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	m.Trace(0, 0, 1, 1, flight.KTxnArrive)
	m.ObserveStage(StageAck, time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 || m.Sampled(1, 1) || m.Stage(StageAck) != nil || m.Tracing() {
		t.Fatal("nil instruments must be inert")
	}
	var zero NodeMetrics
	zero.Requests.Inc()
	zero.ObserveStage(StageExecute, time.Second)
	zero.Trace(0, 0, 1, 1, flight.KTxnAck)
	if zero.Requests.Value() != 0 || zero.Tracing() {
		t.Fatal("zero-value NodeMetrics must be a no-op sink")
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{time.Hour, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if b := bucketBound(10); b != 1024e-6 {
		t.Errorf("bucketBound(10) = %v, want 1.024ms", b)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	// 100 observations: 1ms ... 100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if want := 5050 * time.Millisecond; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", s.Max)
	}
	// Log bucketing bounds the estimate to one bucket's width: each true
	// quantile must fall within (bucket_lower/2, bucket_upper*2].
	checks := []struct {
		name      string
		got, true time.Duration
	}{
		{"p50", s.P50, 50 * time.Millisecond},
		{"p95", s.P95, 95 * time.Millisecond},
		{"p99", s.P99, 99 * time.Millisecond},
	}
	for _, c := range checks {
		if c.got < c.true/2 || c.got > c.true*2 {
			t.Errorf("%s = %v, want within 2x of %v", c.name, c.got, c.true)
		}
	}
	if s.Mean() != 50500*time.Microsecond {
		t.Errorf("mean = %v, want 50.5ms", s.Mean())
	}
}

// TestHistogramConcurrent hammers one histogram from many writers while a
// reader snapshots — correctness is checked on the final totals, and the
// race detector checks the synchronization.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers = 8
	const perWriter = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.P99 > s.Max {
					t.Error("p99 above max")
					return
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(i%1000+w) * time.Microsecond)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if want := uint64(writers * perWriter); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var wantSum time.Duration
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			wantSum += time.Duration(i%1000+w) * time.Microsecond
		}
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	if want := time.Duration(999+writers-1) * time.Microsecond; s.Max != want {
		t.Fatalf("max = %v, want %v", s.Max, want)
	}
}

// TestTraceSampling pins the 1-in-N verdicts: the hash must not drift, or
// replicas running different builds would sample different transactions
// and no lifecycle would merge across them.
func TestTraceSampling(t *testing.T) {
	m := NewNodeMetrics(NewRegistry(), 0, 64)
	// Every sampled (client, seq) with client in 1..16 and seq in 1..64.
	want := map[[2]uint64]bool{
		{1, 48}: true, {1, 50}: true, {2, 32}: true, {2, 34}: true, {5, 63}: true,
		{7, 20}: true, {9, 21}: true, {9, 29}: true, {10, 37}: true, {11, 22}: true,
		{12, 55}: true, {12, 59}: true, {15, 24}: true, {15, 41}: true, {16, 57}: true,
	}
	for c := uint64(1); c <= 16; c++ {
		for seq := uint64(1); seq <= 64; seq++ {
			if got := m.Sampled(c, seq); got != want[[2]uint64{c, seq}] {
				t.Errorf("Sampled(%d, %d) = %v at 1-in-64", c, seq, got)
			}
		}
	}

	sampled := NewNodeMetrics(NewRegistry(), 0, 16)
	hits := 0
	for seq := uint64(0); seq < 16000; seq++ {
		if sampled.Sampled(3, seq) {
			hits++
		}
	}
	// 1-in-16 hash sampling over 16k seqs: expect ~1000, allow wide slack.
	if hits < 500 || hits > 1500 {
		t.Fatalf("sampled %d of 16000 at 1-in-16", hits)
	}
	for _, n := range []int{0, 1} {
		if all := NewNodeMetrics(NewRegistry(), 0, n); !all.Sampled(3, 77) {
			t.Errorf("traceSample %d must sample every transaction", n)
		}
	}

	// A sampled transaction lands in the flight ring as a txn event.
	all := NewNodeMetrics(NewRegistry(), 0, 1)
	all.Trace(2, 1, 9, 5, flight.KTxnAck)
	evs := all.Flight.Dump(0).Events
	if len(evs) != 1 {
		t.Fatalf("ring holds %d events, want 1", len(evs))
	}
	if e := evs[0]; e.Replica != 2 || e.Instance != 1 || e.Sub != flight.SubTxn || e.Kind != flight.KTxnAck ||
		e.Seq != 5 || e.Detail != 9 || flight.DetailString(e) != "client=9" {
		t.Fatalf("lifecycle event = %+v", e)
	}
}

// TestNegativeRingDisablesRecording: a negative ringSize means no flight
// ring at all — nothing recorded, nothing to mirror, and no tracing even
// with sampling on.
func TestNegativeRingDisablesRecording(t *testing.T) {
	m := NewNodeMetrics(NewRegistry(), -1, 1)
	if m.Flight != nil {
		t.Fatal("negative ringSize installed a flight ring")
	}
	if m.Tracing() || m.Sampled(1, 1) {
		t.Fatal("tracing is on without a ring")
	}
	m.Trace(0, 0, 1, 1, flight.KTxnArrive) // must not panic
	if off := NewNodeMetrics(NewRegistry(), 0, -1); off.Flight == nil || off.Tracing() {
		t.Fatal("negative traceSample must keep the ring and turn tracing off")
	}
}

func TestRegistryPanicsOnConflict(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "", "h")
	mustPanic(t, "duplicate series", func() { reg.Counter("x_total", "", "h") })
	mustPanic(t, "kind conflict", func() { reg.Gauge("x_total", "", "h") })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestStageNames(t *testing.T) {
	want := []string{"verify", "consensus", "unify", "execute", "journal", "ack"}
	stages := Stages()
	if len(stages) != len(want) {
		t.Fatalf("%d stages, want %d", len(stages), len(want))
	}
	for i, s := range stages {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s, want[i])
		}
	}
}
