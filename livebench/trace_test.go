package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/sm"
	"repro/internal/store"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// optionalInterfaces are the optional interfaces the program type-asserts on
// the values the traced run wraps. A wrapper must implement exactly the
// ones its bare value implements, or the traced run takes other code paths.
var optionalInterfaces = map[string]reflect.Type{
	"sm.StateSyncable":          reflect.TypeFor[sm.StateSyncable](),
	"sm.BoundarySyncable":       reflect.TypeFor[sm.BoundarySyncable](),
	"sm.DeferredCheckpointer":   reflect.TypeFor[sm.DeferredCheckpointer](),
	"sm.CheckpointSink":         reflect.TypeFor[sm.CheckpointSink](),
	"sm.StateSyncRequester":     reflect.TypeFor[sm.StateSyncRequester](),
	"RequestStateSync":          reflect.TypeFor[interface{ RequestStateSync() }](),
	"store.Snapshotter":         reflect.TypeFor[store.Snapshotter](),
	"crypto.TagAppender":        reflect.TypeFor[crypto.TagAppender](),
	"crypto.BatchAuthenticator": reflect.TypeFor[crypto.BatchAuthenticator](),
}

func optionalSet(v any) map[string]bool {
	set := map[string]bool{}
	for name, it := range optionalInterfaces {
		if reflect.TypeOf(v).Implements(it) {
			set[name] = true
		}
	}
	return set
}

func sameSet(t *testing.T, what string, bare, wrapped any) {
	t.Helper()
	b, w := optionalSet(bare), optionalSet(wrapped)
	if !reflect.DeepEqual(b, w) {
		t.Errorf("%s: bare %T implements %v, wrapped %T implements %v", what, bare, b, wrapped, w)
	}
}

// envProbe captures the Env the runtime hands its machine.
type envProbe struct {
	sm.Machine
	env chan sm.Env
}

func (p *envProbe) Start(env sm.Env) {
	p.env <- env
	p.Machine.Start(env)
}

func TestWrappersForwardTheSameOptionalInterfaces(t *testing.T) {
	tr := newTracer(1)

	machine, err := core.BuildMachine(&core.Options{N: replicas, Protocol: core.RCC, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := machine.(sm.BoundarySyncable); !ok {
		t.Fatalf("RCC machine %T no longer implements sm.BoundarySyncable; the test would prove nothing", machine)
	}
	sameSet(t, "machine", machine, tr.wrapMachine(0, machine))

	var app any = ycsb.NewStore(16)
	sameSet(t, "app", app, tr.wrapApp(0, ycsb.NewStore(16)))

	for _, scheme := range []crypto.Scheme{crypto.SchemeNone, crypto.SchemeMAC, crypto.SchemeDS} {
		a, err := crypto.NewAuth(scheme, 0, []byte(secret))
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, "auth "+scheme.String(), a, tr.wrapAuth(a))
	}

	// The runtime's Env exists only inside a replica: boot one durable
	// replica with state sync on, as the benchmark does, and catch it.
	params, err := quorum.NewParams(replicas)
	if err != nil {
		t.Fatal(err)
	}
	probe := &envProbe{Machine: machine, env: make(chan sm.Env, 1)}
	rep, err := runtime.New(runtime.Config{
		ID: 0, Params: params, Machine: probe, App: ycsb.NewStore(16),
		Journal: true, DataDir: t.TempDir(),
		Journaling: runtime.JournalOptions{Async: true, SnapshotEvery: snapshotEvery},
		StateSync:  runtime.StateSyncOptions{Enabled: true, Source: types.NoReplica},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Run()
	defer rep.Stop()
	select {
	case env := <-probe.env:
		if len(optionalSet(env)) == 0 {
			t.Fatalf("runtime Env %T implements no optional interface; the test would prove nothing", env)
		}
		sameSet(t, "env", env, tr.reps[0].wrapEnv(env))
	case <-time.After(10 * time.Second):
		t.Fatal("replica never started its machine")
	}
}

// TestSpanBreakdownCoversLatency checks the span arithmetic on one
// hand-built transaction: disjoint spans plus the remainder equal the
// client latency.
func TestSpanBreakdownCoversLatency(t *testing.T) {
	tr := newTracer(1)
	rec := &batchRec{deliver: 400, deliverEnd: 450, firstAck: 600}
	s := &span{due: 100, sent: 150, ingress: 200, loopIn: 210, arrive: 700, done: 720, from: 2}
	s.batch[2] = rec
	s.ack[2] = 620
	tr.spans[txnKey{1, 1}] = s
	st := tr.spanStats()
	if st.n != 1 || st.incomplete != 0 {
		t.Fatalf("n=%d incomplete=%d, want 1 and 0", st.n, st.incomplete)
	}
	want := map[string]float64{"queue": 50, "ingress": 50, "loop": 10, "order": 190, "execute": 50, "durable": 150, "reply": 80}
	sum := 0.0
	for _, p := range st.parts {
		if got := p.sum * 1e6; math.Abs(got-want[p.name]) > 1e-6 {
			t.Errorf("span %s = %v ns, want %v", p.name, got, want[p.name])
		}
		sum += p.sum
	}
	if got := (sum + st.unattributed) * 1e6; math.Abs(got-620) > 1e-6 {
		t.Errorf("spans + unattributed = %v ns, want the latency 620", got)
	}
}
