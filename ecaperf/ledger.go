package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// ledger maps a per-layer metric name to its measured value.
type ledger map[string]float64

// ledgerRow documents one per-layer metric: its unit, and which
// end-to-end metric on which workload it should move. A name ending in
// ".*" stands for a family keyed by language, path or request kind.
type ledgerRow struct{ name, unit, moves string }

var ledgerRows = []ledgerRow{
	{"system.events_handler_us_p50", "us", "latency_p50_ms on all workloads"},
	{"system.rules_handler_ms_p50", "ms", "setup_s on fanout; rule_register_p50_ms on all"},
	{"system.shed_per_1k_posts", "count", "failed_frac on journal"},
	{"xmltree.parse_ns_per_event", "ns", "cpu_us_per_event on journal (small share on carrental)"},
	{"xmltree.parse_allocs_per_event", "count", "allocs_per_event on journal"},
	{"tenant.admit_ns_per_post", "ns", "cpu_us_per_event on journal"},
	{"store.append_us_per_post", "us", "latency_p50_ms, cpu_us_per_event on journal"},
	{"store.append_allocs_per_event", "count", "allocs_per_event on journal"},
	{"store.fsync_us_mean", "us", "latency_p99_ms on journal"},
	{"store.records_per_event", "count", "cpu_us_per_event on journal"},
	{"store.recover_s", "s", "setup_s on journal"},
	{"events.publish_ns_per_event", "ns", "cpu_us_per_event, throughput_eps on fanout and journal; no change on carrental"},
	{"events.publish_allocs_per_event", "count", "allocs_per_event on fanout and journal"},
	{"events.match_ns_per_event", "ns", "cpu_us_per_event, throughput_eps on fanout"},
	{"events.detections_per_event", "count", "cpu_us_per_event on fanout"},
	{"snoop.feed_ns_per_event", "ns", "throughput_eps on fanout"},
	{"snoop.occurrences_per_event", "count", "throughput_eps, peak_heap_mb on fanout"},
	{"services.handle_us_p50.*", "us", "latency_p50_ms on fanout"},
	{"services.http_us_p50.*", "us", "latency_p50_ms on carrental"},
	{"grh.self_us_per_dispatch.*", "us", "cpu_us_per_event on fanout"},
	{"grh.dispatch_allocs.*", "count", "allocs_per_event on fanout"},
	{"grh.http_roundtrip_us_p50", "us", "latency_p50_ms, latency_p99_ms on carrental"},
	{"grh.http_calls_per_event", "count", "latency_p50_ms on carrental"},
	{"grh.new_conns_per_event", "count", "latency_p99_ms on carrental (the GRH client keeps 2 idle connections per host)"},
	{"grh.retries_per_1k", "count", "latency_p99_ms on carrental"},
	{"protocol.encode_ns", "ns", "cpu_us_per_event, allocs_per_event on carrental; nothing elsewhere"},
	{"protocol.decode_ns", "ns", "cpu_us_per_event on carrental; nothing elsewhere"},
	{"protocol.codec_allocs", "count", "allocs_per_event on carrental; nothing elsewhere"},
	{"engine.uncovered_us_per_event", "us", "cpu_us_per_event on fanout"},
	{"engine.instances_per_event", "count", "cpu_us_per_event on fanout"},
	{"engine.completed_ratio", "ratio", "cpu_us_per_event on fanout"},
	{"engine.register_us_per_rule", "us", "setup_s on fanout"},
	{"bindings.join_ns", "ns", "cpu_us_per_event on carrental"},
	{"bindings.join_allocs", "count", "allocs_per_event on carrental"},
	{"xq.eval_us_p50", "us", "latency_p50_ms on carrental"},
	{"xpath.eval_us_p50", "us", "latency_p50_ms on carrental"},
	{"compilecache.hit_ratio", "ratio", "cpu_us_per_event on carrental; setup_s on fanout"},
	{"runtime.gc_cpu_frac", "ratio", "allocs_per_event, cpu_us_per_event on all"},
	{"bench.generator_lag_ms_p99", "ms", "validity of the open-loop run"},
	{"bench.trace_overhead_frac", "ratio", "cost of the traced run's hooks"},
}

// perLayer are the per-layer metrics every workload measures, reported
// in the JSON result of a traced run (BENCHMARK.json "per_layer"). The
// rest of the ledger is printed above it, with n/a and the reason where a
// workload does not exercise the layer.
var perLayer = []string{
	"system.events_handler_us_p50",
	"system.rules_handler_ms_p50",
	"xmltree.parse_ns_per_event",
	"xmltree.parse_allocs_per_event",
	"tenant.admit_ns_per_post",
	"store.append_us_per_post",
	"store.append_allocs_per_event",
	"store.fsync_us_mean",
	"store.records_per_event",
	"store.recover_s",
	"events.publish_ns_per_event",
	"events.publish_allocs_per_event",
	"events.match_ns_per_event",
	"events.detections_per_event",
	"grh.self_us_per_dispatch.action",
	"grh.dispatch_allocs.action",
	"protocol.encode_ns",
	"protocol.decode_ns",
	"protocol.codec_allocs",
	"engine.uncovered_us_per_event",
	"engine.instances_per_event",
	"engine.completed_ratio",
	"engine.register_us_per_rule",
	"runtime.gc_cpu_frac",
	"bench.generator_lag_ms_p99",
	"bench.trace_overhead_frac",
}

// notExercised says why a ledger family has no value on a workload.
var notExercised = map[string]string{
	"snoop.":                 "no composite (SNOOP) rules in this workload",
	"services.handle_us_p50": "components are served over HTTP (-distribute); see services.http_us_p50",
	"services.http_us_p50":   "components are dispatched in-process; no service HTTP",
	"grh.http_":              "no component HTTP in this workload",
	"grh.new_conns":          "no component HTTP in this workload",
	"grh.retries_per_1k":     "no component HTTP in this workload",
	"bindings.":              "no query components in this workload",
	"xq.":                    "no XQuery components in this workload",
	"xpath.":                 "no XPath components in this workload",
	"compilecache.":          "no compiled expressions used while traced",
}

// queryReplayer is implemented by workloads whose rules carry queries:
// it returns the rule's xq and xpath evaluations for the recorded posts.
type queryReplayer interface {
	queryCases(posts []*post) (xq, xpath []func() error, err error)
}

// quotaHolder is implemented by workloads that declare tenant quotas.
type quotaHolder interface{ quotaSpecs() []string }

func (w *journal) quotaSpecs() []string { return []string{journalQuota} }

func quotasOf(w workload) []string {
	if q, ok := w.(quotaHolder); ok {
		return q.quotaSpecs()
	}
	return nil
}

// runTraced produces the per-layer ledger. It first measures sequential
// (one caller) throughput untraced, then the same with spans on, one event
// at a time, then an open-loop phase for the generator's lateness, and
// finally replays the traced phase's recorded inputs layer by layer.
func runTraced(ctx context.Context, o options, w workload) (*result, error) {
	if err := w.prepare(ctx); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	rec := newRecorder()
	led := ledger{}
	rec.on.Store(true) // set-up's registrations and recovery are traced
	d, err := w.setup(ctx, &middleware{rec: rec})
	rec.on.Store(false)
	defer func() { d.close() }()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	for _, s := range rec.spans {
		if s.Layer == "store.recover" {
			led["store.recover_s"] = s.dur().Seconds()
		}
	}
	fmt.Printf("# serving %s\n", d.base)
	if err := instrument(d.sys.GRH, rec); err != nil {
		return nil, err
	}
	tr := newTracker()
	tr.attach(d.sys)
	c := newClient(d.base, runtime.NumCPU())
	defer c.close()
	problems := w.verify(ctx, c)

	total := time.Duration(o.seconds) * time.Second
	phase := total / 4
	closedLoop(ctx, c, tr, sources(w, "warm", 1), warmup(total))
	untraced := closedLoop(ctx, c, tr, sources(w, "untraced", 1), phase)
	led["runtime.gc_cpu_frac"] = untraced.gcCPU

	before, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var posts []*post
	src := w.source("traced", 0)
	recording := sourceFunc(func() *post {
		p := src.next()
		posts = append(posts, p)
		rec.req.Add(1)
		return p
	})
	rec.on.Store(true)
	traced := closedLoop(ctx, c, tr, []source{recording}, phase)
	rec.on.Store(false)
	after, err := c.scrape(ctx)
	if err != nil {
		return nil, err
	}
	uEPS := float64(untraced.completed) / untraced.elapsed.Seconds()
	tEPS := float64(traced.completed) / traced.elapsed.Seconds()
	led["bench.trace_overhead_frac"] = finite(1 - tEPS/uEPS)

	ch := startChurn(ctx, c, w, "traced")
	ol := openLoop(ctx, c, tr, sources(w, "open", runtime.NumCPU()), w.openRate(), w.perPost(), phase)
	if _, err := ch.finish(); err != nil {
		problems = append(problems, "rule churn: "+err.Error())
	}
	led["bench.generator_lag_ms_p99"] = percentile(ol.lags, 0.99)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	problems = append(problems, w.verify(ctx, c)...)

	nEvents := 0
	for _, p := range posts {
		nEvents += len(p.Events)
	}
	spanLedger(led, rec, float64(nEvents))
	scrapeLedger(led, before, after, float64(nEvents), float64(len(posts)))
	if err := replayAll(ctx, led, w, posts, rec, d.base, o.tmp); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := rec.writeSpans(spansPath(o)); err != nil {
		fmt.Println("# spans not written:", err)
	}
	printLedger(o.workload, led)

	attempted, failed := tr.failures()
	failed += len(problems)
	for _, p := range problems {
		fmt.Println("# check failed:", p)
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, name := range perLayer {
		v, ok := led[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res.Metrics[name] = metric{v, unitOf(name)}
	}
	return res, nil
}

// spanLedger derives the span-based metrics of the traced phase.
func spanLedger(led ledger, rec *recorder, events float64) {
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rules := append([]float64(nil), rec.rules...)
	rec.mu.Unlock()
	linkParents(spans)
	self := selfTimes(spans)
	durs := map[string][]float64{}
	var uncovered time.Duration
	calls, fresh := 0, 0
	for i, s := range spans {
		if s.Req == 0 {
			continue // set-up
		}
		durs[s.Layer] = append(durs[s.Layer], float64(s.dur().Nanoseconds())/1e3)
		switch {
		case s.Layer == "system.events":
			uncovered += self[i]
		case s.Layer == "grh.roundtrip":
			calls++
			if s.Note == "new" {
				fresh++
			}
		}
	}
	led["system.rules_handler_ms_p50"] = percentile(rules, 0.5)
	led["system.events_handler_us_p50"] = percentile(durs["system.events"], 0.5)
	led["engine.uncovered_us_per_event"] = float64(uncovered.Nanoseconds()) / 1e3 / events
	for layer, ds := range durs {
		switch {
		case strings.HasPrefix(layer, "services.handle."):
			led["services.handle_us_p50."+strings.TrimPrefix(layer, "services.handle.")] = percentile(ds, 0.5)
		case strings.HasPrefix(layer, "services.http/"):
			led["services.http_us_p50."+strings.ReplaceAll(strings.Trim(strings.TrimPrefix(layer, "services.http"), "/"), "/", "-")] = percentile(ds, 0.5)
		case layer == "grh.roundtrip":
			led["grh.http_roundtrip_us_p50"] = percentile(ds, 0.5)
		}
	}
	if calls > 0 {
		led["grh.http_calls_per_event"] = float64(calls) / events
		led["grh.new_conns_per_event"] = float64(fresh) / events
	}
}

// scrapeLedger derives count metrics from /metrics deltas over the traced
// phase, the way ecaload reads them.
func scrapeLedger(led ledger, before, after *obs.Exposition, events, posts float64) {
	delta := func(name string, labels map[string]string) float64 {
		return after.Sum(name, labels) - before.Sum(name, labels)
	}
	led["system.shed_per_1k_posts"] = 1000 * delta("events_shed_total", nil) / posts
	led["events.detections_per_event"] = delta("engine_detections_total", nil) / events
	created := delta("engine_instances", map[string]string{"state": "created"})
	led["engine.instances_per_event"] = created / events
	if created > 0 {
		led["engine.completed_ratio"] = delta("engine_instances", map[string]string{"state": "completed"}) / created
	} else {
		led["engine.completed_ratio"] = 0
	}
	if fed := delta("snoop_events_total", nil); fed > 0 {
		led["snoop.occurrences_per_event"] = delta("snoop_occurrences_total", nil) / events
	}
	if _, ok := led["grh.http_calls_per_event"]; ok {
		led["grh.retries_per_1k"] = 1000 * delta("grh_retries_total", nil) / events
	}
	hits, misses := delta("compile_cache_hits_total", nil), delta("compile_cache_misses_total", nil)
	if hits+misses > 0 {
		led["compilecache.hit_ratio"] = hits / (hits + misses)
	}
}

// replayAll runs every layer replay over the traced phase's inputs. The
// register replay builds a fresh system, so it runs last.
func replayAll(ctx context.Context, led ledger, w workload, posts []*post, rec *recorder, base, tmpRoot string) error {
	parsed, xmls, err := parsePosts(posts)
	if err != nil {
		return err
	}
	if len(parsed) == 0 {
		return fmt.Errorf("the traced phase sent nothing")
	}
	replayParse(led, xmls)
	if err := replayTenant(led, parsed, quotasOf(w)); err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	if err := replayStore(led, parsed, tmpRoot); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := replayEvents(led, parsed, w.rules(base)); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	ex := rec.exchanges()
	replayProtocol(led, ex)
	if err := replayGRH(led, ex); err != nil {
		return fmt.Errorf("grh: %w", err)
	}
	replayJoin(led, ex)
	if q, ok := w.(queryReplayer); ok {
		xqs, xps, err := q.queryCases(posts)
		if err != nil {
			return err
		}
		if err := replayQueries(led, "xq.eval_us_p50", xqs); err != nil {
			return fmt.Errorf("xq: %w", err)
		}
		if err := replayQueries(led, "xpath.eval_us_p50", xps); err != nil {
			return fmt.Errorf("xpath: %w", err)
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return replayRegister(led, w.rules(base), quotasOf(w))
}

// replayQueries times each evaluation and records the median in us.
func replayQueries(led ledger, name string, cases []func() error) error {
	if len(cases) == 0 {
		return nil
	}
	n := repsFor(len(cases), 2000)
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := cases[i%len(cases)](); err != nil {
			return err
		}
		times = append(times, float64(time.Since(start).Nanoseconds())/1e3)
	}
	led[name] = percentile(times, 0.5)
	return nil
}

func unitOf(name string) string {
	for _, r := range ledgerRows {
		if r.name == name || (strings.HasSuffix(r.name, ".*") && strings.HasPrefix(name, strings.TrimSuffix(r.name, "*"))) {
			return r.unit
		}
	}
	return "count"
}

// printLedger prints every per-layer metric with the end-to-end metric it
// should move, and n/a with the reason where the workload has no value.
func printLedger(workload string, led ledger) {
	fmt.Printf("# per-layer ledger, workload %s (value, unit, should move)\n", workload)
	for _, r := range ledgerRows {
		var names []string
		if strings.HasSuffix(r.name, ".*") {
			prefix := strings.TrimSuffix(r.name, "*")
			for k := range led {
				if strings.HasPrefix(k, prefix) {
					names = append(names, k)
				}
			}
			sort.Strings(names)
		} else if _, ok := led[r.name]; ok {
			names = []string{r.name}
		}
		if len(names) == 0 {
			fmt.Printf("#   %-44s %14s %-6s %s\n", r.name, "n/a", "", reasonFor(r.name))
			continue
		}
		for _, k := range names {
			fmt.Printf("#   %-44s %14.6g %-6s -> %s\n", k, led[k], r.unit, r.moves)
		}
	}
}

func reasonFor(name string) string {
	for prefix, why := range notExercised {
		if strings.HasPrefix(name, prefix) {
			return "(" + why + ")"
		}
	}
	return "(not exercised by this workload)"
}
