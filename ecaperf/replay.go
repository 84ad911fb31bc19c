package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bindings"
	"repro/internal/events"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/ruleml"
	"repro/internal/services"
	"repro/internal/snoop"
	"repro/internal/store"
	"repro/internal/system"
	"repro/internal/tenant"
	"repro/internal/xmltree"
)

// The replays below feed a workload's recorded inputs through one layer's
// public functions, outside the running system, and report ns/op and
// allocs/op. Each runs a fixed number of operations so its allocation
// count repeats.

// benchOps runs f n times and returns ns/op and allocs/op.
func benchOps(n int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	if n <= 0 {
		return 0, 0
	}
	runtime.GC()
	a0 := heapAllocs()
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	el := time.Since(start)
	a1 := heapAllocs()
	return float64(el.Nanoseconds()) / float64(n), float64(a1-a0) / float64(n)
}

// repsFor spreads about target operations over items inputs.
func repsFor(items, target int) int {
	if items == 0 {
		return 0
	}
	return items * max(1, target/items)
}

// exposition scrapes a hub the way GET /metrics would.
func exposition(hub *obs.Hub) (*obs.Exposition, error) {
	var b bytes.Buffer
	hub.Metrics().WritePrometheus(&b)
	return obs.ParseExposition(&b)
}

func decodeRequest(b []byte) (*protocol.Request, error) {
	doc, err := xmltree.Parse(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return protocol.DecodeRequest(doc)
}

func decodeAnswers(b []byte) (*protocol.Answer, error) {
	doc, err := xmltree.Parse(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return protocol.DecodeAnswers(doc)
}

// parsedPost is a recorded post with its event documents parsed.
type parsedPost struct {
	tenant string
	docs   []*xmltree.Node
}

func parsePosts(posts []*post) ([]parsedPost, []string, error) {
	var out []parsedPost
	var xmls []string
	for _, p := range posts {
		pp := parsedPost{tenant: p.Tenant}
		for _, ev := range p.Events {
			doc, err := xmltree.ParseString(ev.XML)
			if err != nil {
				return nil, nil, err
			}
			pp.docs = append(pp.docs, doc)
			xmls = append(xmls, ev.XML)
		}
		out = append(out, pp)
	}
	return out, xmls, nil
}

// replayParse: xmltree.Parse over the recorded event bodies.
func replayParse(led ledger, xmls []string) {
	n := repsFor(len(xmls), 20000)
	ns, allocs := benchOps(n, func(i int) {
		if _, err := xmltree.Parse(strings.NewReader(xmls[i%len(xmls)])); err != nil {
			panic(err) // recorded bodies parsed once already
		}
	})
	led["xmltree.parse_ns_per_event"] = ns
	led["xmltree.parse_allocs_per_event"] = allocs
}

// replayTenant: the admission calls POST /events makes per request.
func replayTenant(led ledger, posts []parsedPost, quotas []string) error {
	reg, err := tenant.NewRegistry("")
	if err != nil {
		return err
	}
	qs, err := parseQuotas(quotas)
	if err != nil {
		return err
	}
	for id, q := range qs {
		if err := reg.Declare(id, q); err != nil {
			return err
		}
	}
	n := repsFor(len(posts), 50000)
	var failed error
	ns, _ := benchOps(n, func(i int) {
		p := posts[i%len(posts)]
		t, err := reg.Resolve(p.tenant)
		if err == nil {
			if err = t.AcquirePending(len(p.docs)); err == nil {
				err = t.AdmitEvents(len(p.docs))
				t.ReleasePending(len(p.docs))
			}
		}
		if err != nil && failed == nil {
			failed = err
		}
	})
	led["tenant.admit_ns_per_post"] = ns
	return failed
}

// replayStore: append and ack the recorded posts on a scratch store with
// the ecad defaults, then time its recovery.
func replayStore(led ledger, posts []parsedPost, tmpRoot string) error {
	dir, err := os.MkdirTemp(tmpRoot, "replay-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	hub := obs.NewHub()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncInterval, SnapshotEvery: store.DefaultSnapshotEvery, Obs: hub})
	if err != nil {
		return err
	}
	// Long enough for the interval fsync to fire several times.
	n := repsFor(len(posts), 3000)
	events := 0
	var failed error
	ns, allocs := benchOps(n, func(i int) {
		p := posts[i%len(posts)]
		ids, err := st.AppendEventBatchTenant(p.tenant, p.docs)
		if err != nil && failed == nil {
			failed = err
		}
		st.AckEvents(ids)
		events += len(p.docs)
	})
	time.Sleep(2 * store.DefaultFsyncInterval)
	if err := st.Close(); err != nil {
		return err
	}
	if failed != nil {
		return failed
	}
	led["store.append_us_per_post"] = ns / 1e3
	led["store.append_allocs_per_event"] = allocs * float64(n) / float64(events)
	exp, err := exposition(hub)
	if err != nil {
		return err
	}
	fsync := exp.HistogramDist("store_fsync_seconds", nil)
	if fsync.Count > 0 {
		led["store.fsync_us_mean"] = fsync.Mean() * 1e6
	}
	led["store.records_per_event"] = exp.Sum("store_journal_records_total", nil) / float64(events)
	if _, ok := led["store.recover_s"]; !ok {
		start := time.Now()
		st, err := store.Open(dir, store.Options{Fsync: store.FsyncInterval})
		if err != nil {
			return err
		}
		_, err = st.RecoverTenants(
			func(string, string, *xmltree.Node, time.Time) error { return nil },
			func(string, *xmltree.Node) error { return nil })
		led["store.recover_s"] = time.Since(start).Seconds()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replayEvents: Stream.PublishBatch with one no-op subscriber, and a
// Matcher holding the workload's atomic patterns; plus SNOOP detectors
// built from its composite rules.
func replayEvents(led ledger, posts []parsedPost, rules []tenantRule) error {
	batches := make([][]events.Event, len(posts))
	var all []events.Event
	for i, p := range posts {
		for _, d := range p.docs {
			batches[i] = append(batches[i], events.New(d))
		}
		all = append(all, batches[i]...)
	}
	st := events.NewStream()
	cancel := st.Subscribe(func(events.Event) {})
	n := repsFor(len(batches), 5000)
	evs := 0
	for i := 0; i < n; i++ {
		evs += len(batches[i%len(batches)])
	}
	ns, allocs := benchOps(n, func(i int) { st.PublishBatch(batches[i%len(batches)]) })
	cancel()
	led["events.publish_ns_per_event"] = ns * float64(n) / float64(evs)
	led["events.publish_allocs_per_event"] = allocs * float64(n) / float64(evs)

	m := events.NewMatcher()
	var dets []*snoop.Detector
	for _, r := range rules {
		ev, err := ruleEvent(r.xml)
		if err != nil {
			return err
		}
		if ev.Name.Space == snoop.NS {
			expr, err := snoop.ParseXML(ev)
			if err != nil {
				return err
			}
			ctx := snoop.Chronicle
			if cs := ev.AttrValue("", "context"); cs != "" {
				if ctx, err = snoop.ParseContext(cs); err != nil {
					return err
				}
			}
			d, err := snoop.NewDetector(expr, ctx, func(snoop.Occurrence) {})
			if err != nil {
				return err
			}
			dets = append(dets, d)
			continue
		}
		p, err := events.NewPattern(ev)
		if err != nil {
			return err
		}
		m.Register(fmt.Sprintf("r%d", m.Len()), p, func(events.Detection) {})
	}
	n = repsFor(len(all), 20000)
	led["events.match_ns_per_event"], _ = benchOps(n, func(i int) { m.OnEvent(all[i%len(all)]) })
	if len(dets) > 0 {
		led["snoop.feed_ns_per_event"], _ = benchOps(repsFor(len(all), 5000), func(i int) {
			for _, d := range dets {
				d.Feed(all[i%len(all)])
			}
		})
	}
	return nil
}

// ruleEvent returns the expression element of a rule's eca:event.
func ruleEvent(ruleXML string) (*xmltree.Node, error) {
	doc, err := xmltree.ParseString(ruleXML)
	if err != nil {
		return nil, err
	}
	ev := doc.Root().FirstChildElement(protocol.ECANS, "event")
	if ev == nil || len(ev.ChildElements()) != 1 {
		return nil, fmt.Errorf("rule has no single event expression")
	}
	return ev.ChildElements()[0], nil
}

// replayProtocol: Encode*/Decode* over the recorded request/answer pairs.
func replayProtocol(led ledger, ex []exchange) {
	if len(ex) == 0 {
		return
	}
	reqNodes := make([]*xmltree.Node, len(ex))
	ansNodes := make([]*xmltree.Node, len(ex))
	for i, e := range ex {
		reqNodes[i] = protocol.EncodeRequest(e.req)
		ansNodes[i] = protocol.EncodeAnswers(e.ans)
	}
	n := repsFor(len(ex), 10000)
	encNs, encAllocs := benchOps(n, func(i int) {
		e := ex[i%len(ex)]
		protocol.EncodeRequest(e.req)
		protocol.EncodeAnswers(e.ans)
	})
	decNs, decAllocs := benchOps(n, func(i int) {
		if _, err := protocol.DecodeRequest(reqNodes[i%len(ex)]); err != nil {
			panic(err) // encoded from a decoded request just above
		}
		if _, err := protocol.DecodeAnswers(ansNodes[i%len(ex)]); err != nil {
			panic(err)
		}
	})
	// Per message: each operation handles a request and an answer.
	led["protocol.encode_ns"] = encNs / 2
	led["protocol.decode_ns"] = decNs / 2
	led["protocol.codec_allocs"] = (encAllocs + decAllocs) / 2
}

func componentKind(k protocol.RequestKind) (ruleml.ComponentKind, bool) {
	switch k {
	case protocol.Query:
		return ruleml.QueryComponent, true
	case protocol.Test:
		return ruleml.TestComponent, true
	case protocol.Action:
		return ruleml.ActionComponent, true
	}
	return "", false
}

// replayGRH dispatches the recorded query, test and action components
// through a GRH built with ecad's policies whose services are stubs
// answering the recorded answer; the stub's own time is subtracted.
func replayGRH(led ledger, ex []exchange) error {
	cfg := ecadConfig(nil, nil, nil)
	g := grh.New(grh.WithRetry(cfg.Retry), grh.WithBreaker(cfg.Breaker), grh.WithLog(cfg.Log))
	var cur *protocol.Answer
	var stubTime time.Duration
	stub := grh.ServiceFunc(func(*protocol.Request) (*protocol.Answer, error) {
		start := time.Now()
		a := cur
		stubTime += time.Since(start)
		return a, nil
	})
	registered := map[string]bool{}
	register := func(lang string) error {
		if registered[lang] {
			return nil
		}
		registered[lang] = true
		return g.Register(grh.Descriptor{Language: lang, Name: "replay stub", FrameworkAware: true, Local: stub,
			Kinds: []ruleml.ComponentKind{ruleml.QueryComponent, ruleml.TestComponent, ruleml.ActionComponent}})
	}
	for lang, kind := range map[string]ruleml.ComponentKind{services.XQueryNS: ruleml.QueryComponent, services.TestNS: ruleml.TestComponent, services.ActionNS: ruleml.ActionComponent} {
		if err := register(lang); err != nil {
			return err
		}
		g.SetDefault(kind, lang)
	}
	byKind := map[protocol.RequestKind][]grh.Component{}
	answers := map[protocol.RequestKind][]*protocol.Answer{}
	for _, e := range ex {
		kind, ok := componentKind(e.req.Kind)
		if !ok {
			continue
		}
		if e.req.Language != "" {
			if err := register(e.req.Language); err != nil {
				return err
			}
		}
		byKind[e.req.Kind] = append(byKind[e.req.Kind], grh.Component{
			Rule:     e.req.RuleID,
			Comp:     ruleml.Component{Kind: kind, ID: e.req.Component, Language: e.req.Language, Expression: e.req.Expression},
			Bindings: e.req.Bindings,
			Tenant:   e.req.Tenant,
		})
		answers[e.req.Kind] = append(answers[e.req.Kind], e.ans)
	}
	for kind, comps := range byKind {
		n := repsFor(len(comps), 10000)
		stubTime = 0
		var failed error
		ns, allocs := benchOps(n, func(i int) {
			cur = answers[kind][i%len(comps)]
			if _, err := g.Dispatch(kind, comps[i%len(comps)]); err != nil && failed == nil {
				failed = err
			}
		})
		if failed != nil {
			return failed
		}
		self := ns - float64(stubTime.Nanoseconds())/float64(n)
		led["grh.self_us_per_dispatch."+string(kind)] = self / 1e3
		led["grh.dispatch_allocs."+string(kind)] = allocs
	}
	return nil
}

// replayJoin: Relation.Join of each recorded query's input bindings with
// its answer relation, the join the engine performs per query.
func replayJoin(led ledger, ex []exchange) {
	type pair struct{ a, b *bindings.Relation }
	var pairs []pair
	for _, e := range ex {
		if e.req.Kind == protocol.Query && e.req.Bindings != nil {
			pairs = append(pairs, pair{e.req.Bindings, e.ans.Relation()})
		}
	}
	if len(pairs) == 0 {
		return
	}
	n := repsFor(len(pairs), 20000)
	led["bindings.join_ns"], led["bindings.join_allocs"] = benchOps(n, func(i int) {
		p := pairs[i%len(pairs)]
		p.a.Join(p.b)
	})
}

// replayRegister times ruleml parsing plus registration of every rule of
// the workload into a fresh system, through the /engine/rules handler
// called in-process (no network).
func replayRegister(led ledger, rules []tenantRule, quotas []string) error {
	qs, err := parseQuotas(quotas)
	if err != nil {
		return err
	}
	sys, err := system.NewLocal(ecadConfig(obs.NewHub(), nil, qs))
	if err != nil {
		return err
	}
	defer sys.Close()
	mux := sys.Mux(nil, nil)
	var total time.Duration
	for _, r := range rules {
		req := httptest.NewRequest(http.MethodPost, "/engine/rules", strings.NewReader(r.xml))
		if r.tenant != "" {
			req.Header.Set(protocol.TenantHeader, r.tenant)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		mux.ServeHTTP(rec, req)
		total += time.Since(start)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("register replay: HTTP %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	led["engine.register_us_per_rule"] = float64(total.Nanoseconds()) / 1e3 / float64(len(rules))
	return nil
}
