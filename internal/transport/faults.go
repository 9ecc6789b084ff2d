package transport

// Network fault injection for the chaos harness, core.Cluster's Crash, and
// tests. One Faults value is shared by every node of a cluster: it is a directional
// link-state matrix (cut or delayed), and each TCP node consults it with its
// own identity at the two points a message crosses the boundary — outbound
// at Send-enqueue time and inbound just before endpoint delivery. Checking
// BOTH ends means a partition takes effect immediately even for frames
// already buffered in a socket or a writer queue when the cut lands, and
// the cut holds regardless of which side's rules the harness installed
// first.
//
// Drops are indistinguishable from packet loss to the protocol: connections
// stay up, no errors surface, retransmission and view-change timers own
// recovery — exactly the failure surface a real partition presents. Delays
// model WAN geo-latency: a constant per-link delay holds back inbound
// delivery without reordering (same link, same delay → FIFO preserved).

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/types"
)

type linkKey struct {
	from, to types.ReplicaID
}

// Faults is a dynamic, concurrency-safe link-fault matrix. The zero value
// (and a nil *Faults) injects nothing. All methods may be called while the
// cluster runs; changes take effect on the next message crossing the link.
type Faults struct {
	mu    sync.RWMutex
	cut   map[linkKey]struct{}
	delay map[linkKey]time.Duration
}

// NewFaults returns an empty fault matrix.
func NewFaults() *Faults {
	return &Faults{
		cut:   make(map[linkKey]struct{}),
		delay: make(map[linkKey]time.Duration),
	}
}

// Partition cuts both directions between a and b.
func (f *Faults) Partition(a, b types.ReplicaID) {
	f.mu.Lock()
	f.cut[linkKey{a, b}] = struct{}{}
	f.cut[linkKey{b, a}] = struct{}{}
	f.mu.Unlock()
}

// PartitionSets cuts every link between the two groups, both directions. A
// replica appearing in both groups keeps its intra-group links.
func (f *Faults) PartitionSets(groupA, groupB []types.ReplicaID) {
	f.mu.Lock()
	for _, a := range groupA {
		for _, b := range groupB {
			if a != b {
				f.cut[linkKey{a, b}] = struct{}{}
				f.cut[linkKey{b, a}] = struct{}{}
			}
		}
	}
	f.mu.Unlock()
}

// Isolate cuts every link to and from a.
func (f *Faults) Isolate(a types.ReplicaID, n int) {
	f.mu.Lock()
	for i := 0; i < n; i++ {
		b := types.ReplicaID(i)
		if b != a {
			f.cut[linkKey{a, b}] = struct{}{}
			f.cut[linkKey{b, a}] = struct{}{}
		}
	}
	f.mu.Unlock()
}

// Heal restores both directions between a and b.
func (f *Faults) Heal(a, b types.ReplicaID) {
	f.mu.Lock()
	delete(f.cut, linkKey{a, b})
	delete(f.cut, linkKey{b, a})
	f.mu.Unlock()
}

// HealAll removes every cut (delays stay — they model geography, not
// failure).
func (f *Faults) HealAll() {
	f.mu.Lock()
	f.cut = make(map[linkKey]struct{})
	f.mu.Unlock()
}

// SetLinkDelay imposes a constant one-way delivery delay from a to b (0
// removes it). Symmetric latency needs two calls.
func (f *Faults) SetLinkDelay(a, b types.ReplicaID, d time.Duration) {
	f.mu.Lock()
	if d <= 0 {
		delete(f.delay, linkKey{a, b})
	} else {
		f.delay[linkKey{a, b}] = d
	}
	f.mu.Unlock()
}

// Cuts reports how many directed links are currently cut.
func (f *Faults) Cuts() int {
	if f == nil {
		return 0
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.cut)
}

// dropped reports whether the directed link from→to is cut. Nil-safe.
func (f *Faults) dropped(from, to types.ReplicaID) bool {
	if f == nil {
		return false
	}
	f.mu.RLock()
	_, cut := f.cut[linkKey{from, to}]
	f.mu.RUnlock()
	return cut
}

// delayOf returns the directed link's delivery delay (0 = none). Nil-safe.
func (f *Faults) delayOf(from, to types.ReplicaID) time.Duration {
	if f == nil {
		return 0
	}
	f.mu.RLock()
	d := f.delay[linkKey{from, to}]
	f.mu.RUnlock()
	return d
}

// ---------------------------------------------------------------------------
// Delayed inbound delivery
// ---------------------------------------------------------------------------

// delayedMsg is one inbound message held back by a link delay.
type delayedMsg struct {
	at   time.Time
	from types.ReplicaID
	m    types.Message
}

type delayHeap []delayedMsg

func (h delayHeap) Len() int           { return len(h) }
func (h delayHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h delayHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)        { *h = append(*h, x.(delayedMsg)) }
func (h *delayHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// delayLoop delivers delay-held inbound messages when their time comes. One
// goroutine per TCP node, started only when a Faults matrix is configured;
// per-link FIFO holds because a link's delay is constant at enqueue time
// (monotone deadlines) and the heap breaks ties stably enough for distinct
// arrival instants.
func (t *TCP) delayLoop() {
	defer t.wgReaders.Done()
	var h delayHeap
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var timerC <-chan time.Time
		if len(h) > 0 {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Until(h[0].at))
			timerC = timer.C
		}
		select {
		case <-t.done:
			return
		case dm := <-t.delayCh:
			heap.Push(&h, dm)
		case <-timerC:
			now := time.Now()
			for len(h) > 0 && !h[0].at.After(now) {
				dm := heap.Pop(&h).(delayedMsg)
				// Re-check the cut at release: a partition that landed
				// while the message sat in the heap still drops it.
				if t.cfg.Faults.dropped(dm.from, t.cfg.Self) {
					t.faultDropped.Add(1)
					continue
				}
				t.ep.DeliverReplica(dm.from, dm.m)
			}
		}
	}
}

// deliverReplica is the inbound delivery point for replica links, where
// injected faults apply: a cut link drops the message silently (counted), a
// delayed link holds it back via the delay heap.
func (t *TCP) deliverReplica(from types.ReplicaID, m types.Message) {
	if f := t.cfg.Faults; f != nil {
		if f.dropped(from, t.cfg.Self) {
			t.faultDropped.Add(1)
			return
		}
		if d := f.delayOf(from, t.cfg.Self); d > 0 {
			select {
			case t.delayCh <- delayedMsg{at: time.Now().Add(d), from: from, m: m}:
			case <-t.done:
			}
			return
		}
	}
	t.ep.DeliverReplica(from, m)
}
