package bench

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/ycsb"
)

// Timeline runs a 4-replica durable RCC cluster through a scripted incident
// — healthy load, then one replica crashed mid-load while the cluster
// decides on without it — and reports what the flight recorder captured:
// the merged causal timeline's event counts by kind and the anomaly
// highlights the merge layer raised. It is the in-process rehearsal of the
// production workflow (scrape /debug/events from every replica, merge,
// read the highlights).
func Timeline() (*Table, error) {
	const (
		n      = 4
		txns   = 24 // healthy phase
		txns2  = 24 // degraded phase, replica 3 gone
		crashN = 3
	)

	dir, err := os.MkdirTemp("", "rcc-timeline-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, -1)
	cluster, err := core.NewCluster(core.Options{
		N:         n,
		Protocol:  core.RCC,
		BatchSize: 1,
		Window:    8,
		DataDir:   dir,
		Metrics:   met,
	})
	if err != nil {
		return nil, err
	}
	cluster.Start()
	defer cluster.Stop()

	cl := cluster.NewClient(0)
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: ycsb.DefaultRecords, Seed: 1})
	run := func(count int) error {
		for i := 0; i < count; i++ {
			if _, err := cl.Execute(wl.Next(cl.ID()).Op, 30*time.Second); err != nil {
				return fmt.Errorf("timeline: %w", err)
			}
		}
		return nil
	}
	if err := run(txns); err != nil {
		return nil, err
	}
	// The incident: replica 3 drops off the network mid-deployment. Its
	// concurrent instances stop deciding, the survivors suspect it, agree to
	// void its rounds, and keep unifying waves without it.
	cluster.Crash(crashN)
	if err := run(txns2); err != nil {
		return nil, err
	}

	// The in-process cluster shares one catalog, so one dump carries every
	// replica's events; Merge aligns and orders them all the same.
	tl := flight.Merge([]flight.Snapshot{met.Flight.Dump(0)})
	anoms := flight.DetectAnomalies(tl)

	kinds := map[flight.Kind]int{}
	for _, ev := range tl {
		kinds[ev.Kind]++
	}
	order := make([]flight.Kind, 0, len(kinds))
	for k := range kinds {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	t := &Table{
		ID:     "timeline",
		Title:  "flight-recorder incident timeline (RCC n=4, replica 3 crashed mid-load)",
		Header: []string{"metric", "count"},
	}
	t.Rows = append(t.Rows, []string{"events-total", fmt.Sprint(len(tl))})
	for _, k := range order {
		t.Rows = append(t.Rows, []string{"events." + k.String(), fmt.Sprint(kinds[k])})
	}
	t.Rows = append(t.Rows, []string{"anomalies-total", fmt.Sprint(len(anoms))})
	byTitle := map[string]int{}
	for _, a := range anoms {
		byTitle[a.Title]++
	}
	titles := make([]string, 0, len(byTitle))
	for title := range byTitle {
		titles = append(titles, title)
	}
	sort.Strings(titles)
	for _, title := range titles {
		t.Rows = append(t.Rows, []string{"anomalies." + title, fmt.Sprint(byTitle[title])})
	}
	return t, nil
}
