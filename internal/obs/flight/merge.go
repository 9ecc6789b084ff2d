package flight

// The merge layer turns per-replica flight snapshots into one cluster-wide
// causal timeline. Each snapshot's hybrid anchor resolves its events to
// wall time independently, so replicas whose wall clocks stepped after
// start still interleave correctly; the merged sequence is then scanned
// for the anomaly shapes that matter when diagnosing a stuck cluster:
// view-change storms, repeated link demotions, unification waves that
// stopped advancing, and the always-notable singles (loop stalls, fsync
// stalls, durability poison).

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// TimelineEvent is one event on the merged cluster timeline, with its
// wall time already resolved against its source snapshot's anchor.
type TimelineEvent struct {
	Wall time.Time
	Event
}

// Merge resolves every snapshot's events to wall time and merge-sorts them
// into one timeline. Ties sort by replica then kind, so identical-stamp
// events order deterministically.
func Merge(snaps []Snapshot) []TimelineEvent {
	var total int
	for i := range snaps {
		total += len(snaps[i].Events)
	}
	tl := make([]TimelineEvent, 0, total)
	for i := range snaps {
		for _, e := range snaps[i].Events {
			tl = append(tl, TimelineEvent{Wall: snaps[i].WallTime(e), Event: e})
		}
	}
	sort.SliceStable(tl, func(a, b int) bool {
		if !tl[a].Wall.Equal(tl[b].Wall) {
			return tl[a].Wall.Before(tl[b].Wall)
		}
		if tl[a].Replica != tl[b].Replica {
			return tl[a].Replica < tl[b].Replica
		}
		return tl[a].Kind < tl[b].Kind
	})
	return tl
}

// Anomaly is one highlighted pattern on a merged timeline.
type Anomaly struct {
	At     time.Time
	Title  string // short machine-greppable slug
	Detail string // human-readable explanation
}

const (
	// stormWindow / stormCount: >= stormCount view-change starts on one
	// instance inside stormWindow is a storm — the instance is churning
	// views instead of deciding.
	stormWindow = 10 * time.Second
	stormCount  = 3
	// demoteCount repeated demotions of the same (replica, peer) link
	// inside stormWindow: the link is flapping, not recovering.
	demoteCount = 2
	// waveStallGap: instance decisions piling up for this long with no
	// unification delivery anywhere means the wave is stuck — some
	// instance everyone is waiting on has stopped.
	waveStallGap = 2 * time.Second
)

// DetectAnomalies scans a merged timeline for the patterns worth a human's
// attention. Heuristics are deliberately coarse: the recorder is a
// diagnosis aid, and a false highlight costs a glance while a missed one
// costs the incident.
func DetectAnomalies(tl []TimelineEvent) []Anomaly {
	var out []Anomaly

	// Sliding per-key windows for storm-type patterns.
	vcTimes := map[uint64][]time.Time{}  // instance<<16|replica is too fine: key by instance
	demTimes := map[uint64][]time.Time{} // replica<<32|peer
	slide := func(ts []time.Time, now time.Time) []time.Time {
		for len(ts) > 0 && now.Sub(ts[0]) > stormWindow {
			ts = ts[1:]
		}
		return ts
	}

	var lastUnify, firstStuckDecide time.Time
	stuckDecides := 0
	waveReported := false

	for _, ev := range tl {
		switch ev.Kind {
		case KViewChangeStart:
			k := uint64(ev.Instance)
			ts := append(slide(vcTimes[k], ev.Wall), ev.Wall)
			vcTimes[k] = ts
			if len(ts) == stormCount {
				out = append(out, Anomaly{ev.Wall, "view-change-storm",
					fmt.Sprintf("instance %d: %d view changes within %s (replica %d reached view %d)",
						ev.Instance, len(ts), stormWindow, ev.Replica, ev.View)})
			}
		case KDemote:
			k := uint64(ev.Replica)<<32 | ev.Detail
			ts := append(slide(demTimes[k], ev.Wall), ev.Wall)
			demTimes[k] = ts
			if len(ts) == demoteCount {
				out = append(out, Anomaly{ev.Wall, "repeated-demotion",
					fmt.Sprintf("replica %d demoted link to peer %d %d times within %s",
						ev.Replica, ev.Detail, len(ts), stormWindow)})
			}
		case KInstanceDecide:
			if stuckDecides == 0 {
				firstStuckDecide = ev.Wall
			}
			stuckDecides++
			if !waveReported && stuckDecides > 1 &&
				(lastUnify.IsZero() || lastUnify.Before(firstStuckDecide)) &&
				ev.Wall.Sub(firstStuckDecide) > waveStallGap {
				out = append(out, Anomaly{ev.Wall, "stalled-wave",
					fmt.Sprintf("%d instance decisions over %s with no unified delivery — a wave is waiting on a stopped instance",
						stuckDecides, ev.Wall.Sub(firstStuckDecide).Round(time.Millisecond))})
				waveReported = true
			}
		case KWaveUnify:
			lastUnify = ev.Wall
			stuckDecides = 0
			waveReported = false
		case KLoopStall:
			out = append(out, Anomaly{ev.Wall, "loop-stall",
				fmt.Sprintf("replica %d consensus loop stalled for %s", ev.Replica, time.Duration(ev.Detail))})
		case KFsyncStall:
			out = append(out, Anomaly{ev.Wall, "fsync-stall",
				fmt.Sprintf("replica %d fsync took %s", ev.Replica, time.Duration(ev.Detail))})
		case KDurabilityPoison:
			out = append(out, Anomaly{ev.Wall, "durability-poison",
				fmt.Sprintf("replica %d journal poisoned — replica must be replaced", ev.Replica)})
		}
	}
	return out
}

// WriteTimeline renders the merged timeline with anomalies inlined where
// they were detected and summarized at the end.
func WriteTimeline(w io.Writer, tl []TimelineEvent, anoms []Anomaly) {
	fmt.Fprintf(w, "timeline: %d events, %d anomalies\n", len(tl), len(anoms))
	ai := 0
	for _, ev := range tl {
		for ai < len(anoms) && !anoms[ai].At.After(ev.Wall) {
			fmt.Fprintf(w, "!! %s %s: %s\n", anoms[ai].At.Format("15:04:05.000000"), anoms[ai].Title, anoms[ai].Detail)
			ai++
		}
		writeEvent(w, ev.Wall, ev.Event)
	}
	for ; ai < len(anoms); ai++ {
		fmt.Fprintf(w, "!! %s %s: %s\n", anoms[ai].At.Format("15:04:05.000000"), anoms[ai].Title, anoms[ai].Detail)
	}
	if len(anoms) > 0 {
		fmt.Fprintf(w, "anomalies: %d\n", len(anoms))
		for _, a := range anoms {
			fmt.Fprintf(w, "  %s %s: %s\n", a.At.Format("15:04:05.000000"), a.Title, a.Detail)
		}
	}
}

// FetchHTTP scrapes one replica's full ring from its admin endpoint
// (GET http://addr/debug/events?format=bin).
func FetchHTTP(addr string) (Snapshot, error) {
	resp, err := http.Get("http://" + addr + "/debug/events?format=bin")
	if err != nil {
		return Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Snapshot{}, fmt.Errorf("flight: %s returned %s", addr, resp.Status)
	}
	return DecodeBinary(resp.Body)
}
