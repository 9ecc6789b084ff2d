package main

import (
	"math"
	"sort"

	"repro/internal/transport"
)

// counters are the program's own public counters, summed over the cluster.
type counters struct {
	frames, msgs        uint64 // TCP.Stats over replicas and sessions
	walAppends, walSync uint64 // Durable().WAL().Stats()
	retries             uint64 // client.Retries()
	executed            uint64 // Replica.Executed()
}

func (c *cluster) counters() counters {
	var k counters
	add := func(st transport.TCPStats) {
		k.frames += st.BatchesSent
		k.msgs += st.MsgsSent
	}
	for i, r := range c.reps {
		add(c.tcps[i].Stats())
		a, s := r.Durable().WAL().Stats()
		k.walAppends += a
		k.walSync += s
		k.executed += r.Executed()
	}
	for _, s := range c.sessions {
		add(s.tcp.Stats())
		k.retries += s.mach.Retries()
	}
	return k
}

// xcheck pairs a count taken by the wrappers with the program's own counter.
type xcheck struct {
	name         string
	outsideLabel string
	outside      int64
	programLabel string
	program      uint64
}

// report turns the traced phase into per-layer metrics. Per-transaction
// ratios divide by the window's completions.
func (t *tracer) report(c *cluster, p *phase, before, after counters) map[string]metric {
	comps := float64(p.completions)
	per := func(x float64) float64 { return x / comps }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	pct := func(name, unit string, sorted []float64) {
		put(name+"_p50_"+unit, quantile0(sorted, 0.5), unit)
		put(name+"_p99_"+unit, quantile0(sorted, 0.99), unit)
	}

	sp := t.spanStats()

	// client
	pct("client.queue", "ms", sp.queue)
	put("client.retries_per_ktxn", 1e3*per(float64(after.retries-before.retries)), "1/ktxn")
	put("loadgen.late_p50_ms", p.lateP50, "ms")
	put("loadgen.late_p99_ms", p.lateP99, "ms")
	put("loadgen.late_max_ms", p.lateMax, "ms")

	// transport
	put("transport.msgs_per_txn", per(float64(t.sends.Load()+t.clientSends.Load())), "msg/txn")
	put("transport.frames_per_txn", per(float64(after.frames-before.frames)), "frame/txn")
	pct("transport.send", "us", t.sendUs.sorted())
	pct("transport.ingress", "ms", sp.ingress)
	pct("transport.reply", "ms", sp.reply)

	// crypto
	put("crypto.verify_us_per_txn", per(float64(t.verifyNs.Load())/1e3), "us")
	put("crypto.tag_us_per_txn", per(float64(t.tagNs.Load())/1e3), "us")
	put("crypto.verifies_per_txn", per(float64(t.verifies.Load())), "count")

	// runtime
	pct("runtime.loop_wait", "us", t.loopWaitUs.sorted())

	// pbft
	put("consensus.busy_us_per_txn", per(float64(t.busyNs.Load())/1e3), "us")
	put("consensus.msgs_in_per_txn", per(float64(t.msgsIn.Load())), "msg/txn")
	pct("consensus.order", "ms", sp.order)

	// rcc
	dec := float64(t.decisions.Load())
	put("rcc.noop_frac", float64(t.noops.Load())/dec, "ratio")
	put("rcc.txns_per_round", float64(t.txnsDelivered.Load())*replicas/dec, "txn")

	// exec
	execNs := float64(t.execNs.Load())
	put("exec.us_per_txn", execNs/1e3/float64(t.execs.Load()), "us")
	put("exec.concurrency", execNs/float64(t.execBusyNs.Load()), "ratio")

	// wal/store
	syncs := float64(after.walSync - before.walSync)
	put("wal.records_per_fsync", float64(after.walAppends-before.walAppends)/syncs, "ratio")
	put("wal.fsyncs_per_ktxn", 1e3*per(syncs), "1/ktxn")
	pct("wal.durable", "ms", t.durableMs())

	// span: mean per-transaction breakdown of the client latency
	for _, part := range sp.parts {
		put("span."+part.name+"_ms", part.sum/float64(sp.n), "ms")
	}
	put("span.unattributed_ms", sp.unattributed/float64(sp.n), "ms")
	put("span.unattributed_frac", sp.unattributed/sp.latency, "ratio")
	put("span.samples", float64(sp.n), "count")
	put("span.incomplete", float64(sp.incomplete), "count")

	// cross-check: counts seen from outside against the program's counters,
	// over the cluster's lifetime, read after the drain.
	final := c.counters()
	p.xcheck = []xcheck{
		{"sends", "wrapped Transport sends", t.lifeSends.Load(), "TCP.Stats().MsgsSent", final.msgs},
		{"executes", "wrapped Application.Execute calls", t.lifeExecs.Load(), "Replica.Executed()", final.executed},
		{"blocks", "journaled blocks (wrapped Env.Deliver)", t.lifeBlocks.Load(), "WAL().Stats() appends", final.walAppends},
	}
	for _, x := range p.xcheck {
		put("xcheck."+x.name+"_diff_frac", math.Abs(float64(x.outside)-float64(x.program))/float64(x.program), "ratio")
	}
	return m
}

func quantile0(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantile(sorted, q)
}

// durableMs returns, sorted, each window batch's wait from the end of
// Env.Deliver (execution done, record handed to the journal) to its first
// client reply, which the runtime sends once the record is durable.
func (t *tracer) durableMs() []float64 {
	var v []float64
	for _, r := range t.reps {
		r.mu.Lock()
		for _, b := range r.batches {
			if b.firstAck != 0 {
				v = append(v, math.Max(0, float64(b.firstAck-b.deliverEnd))/1e6)
			}
		}
		r.mu.Unlock()
	}
	sort.Float64s(v)
	return v
}

type spanPart struct {
	name string
	sum  float64
}

type spanStats struct {
	queue, ingress, order, reply []float64 // sorted, ms
	parts                        []spanPart
	unattributed, latency        float64
	n, incomplete                int
}

// spanStats splits each sampled transaction's client latency into disjoint
// spans, each timed on the replica R whose reply completed the quorum:
// queue (issue -> sent), ingress (sent -> primary's endpoint), loop
// (primary's endpoint -> its machine), order (primary's machine -> R's
// Env.Deliver), execute (R's Env.Deliver call), durable (end of Deliver ->
// R's first reply for the batch), reply (R's reply for this transaction ->
// arrival at the client). What the spans leave uncovered is unattributed.
func (t *tracer) spanStats() spanStats {
	var st spanStats
	names := []string{"queue", "ingress", "loop", "order", "execute", "durable", "reply"}
	st.parts = make([]spanPart, len(names))
	for i, n := range names {
		st.parts[i].name = n
	}
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	for _, s := range t.spans {
		if s.done == 0 || s.arrive == 0 {
			st.incomplete++
			continue
		}
		b := s.batch[s.from]
		ack := s.ack[s.from]
		if s.sent == 0 || s.ingress == 0 || s.loopIn == 0 || b == nil || b.deliverEnd == 0 || b.firstAck == 0 || ack == 0 {
			st.incomplete++
			continue
		}
		ms := func(d int64) float64 { return float64(d) / 1e6 }
		durable := math.Max(0, ms(b.firstAck-b.deliverEnd))
		spans := []float64{
			ms(s.sent - s.due),
			ms(s.ingress - s.sent),
			ms(s.loopIn - s.ingress),
			ms(b.deliver - s.loopIn),
			ms(b.deliverEnd - b.deliver),
			durable,
			ms(s.arrive - ack),
		}
		lat := ms(s.done - s.due)
		rest := lat
		for i, v := range spans {
			st.parts[i].sum += v
			rest -= v
		}
		st.queue = append(st.queue, spans[0])
		st.ingress = append(st.ingress, spans[1])
		st.order = append(st.order, spans[3])
		st.reply = append(st.reply, spans[6])
		st.unattributed += rest
		st.latency += lat
		st.n++
	}
	for _, v := range [][]float64{st.queue, st.ingress, st.order, st.reply} {
		sort.Float64s(v)
	}
	return st
}
