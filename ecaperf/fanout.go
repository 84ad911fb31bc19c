package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/protocol"
	"repro/internal/services"
	"repro/internal/snoop"
)

// fanout is 1,000 generated rules, all in-process, with inline detection
// (the ecad default): about 80% atomic-pattern rules, each with its own
// constant, a $P > k test and a domain action, some with a small XQuery
// query; about 20% SNOOP seq rules in the chronicle context pairing
// order(id=$O) with fill(id=$O). Events go as NDJSON batches of 16.
//
// Why: most of the time goes to events (a linear matcher over 1,000
// patterns, plus stream sequencing and dispatch), snoop, engine,
// in-process grh dispatch, the test evaluator and the action executor.
// There is no component HTTP, no protocol layer and no store. Its set-up
// covers 1,000 registrations. It is the many-rules complex event
// processing load reaction-rule languages target.
type fanout struct {
	seed    int64
	atomics []atomicRule
	bySym   map[string][]int // symbol -> indexes into atomics
	desks   []string
	weights map[string][]string // symbol -> <w> values in the levels document
}

type atomicRule struct {
	id    string
	sym   string
	k     int
	query bool
}

const (
	fanoutNS      = "http://example.org/bench/fanout"
	fanoutLevels  = "http://example.org/bench/levels.xml"
	fanoutSymbols = 200
	fanoutAtomic  = 800
	fanoutSeq     = 200
	fanoutBatch   = 16
	// Open-loop rate in events/s: about a third of the closed-loop
	// capacity measured at the seed commit on a 2-vCPU host.
	fanoutRate = 400
)

// newFanout generates the rules. The shape is fixed so the work per event
// does not swing with the seed: every symbol has four atomic rules, one
// per threshold band (k in [10,30), [30,50), [50,70), [70,90)), and one of
// the four, picked by the seed, carries the query; symbol s has 1 + s%2
// weights in the levels document. The seed picks thresholds, query
// placement and weight values.
func newFanout(seed int64) *fanout {
	r := rand.New(rand.NewSource(seed))
	w := &fanout{seed: seed, bySym: map[string][]int{}, weights: map[string][]string{}}
	queryBand := make([]int, fanoutSymbols)
	for s := 0; s < fanoutSymbols; s++ {
		sym := fmt.Sprintf("s%03d", s)
		for n := 0; n <= s%2; n++ {
			w.weights[sym] = append(w.weights[sym], strconv.Itoa(1+r.Intn(9))+strconv.Itoa(n))
		}
		queryBand[s] = r.Intn(fanoutAtomic / fanoutSymbols)
	}
	for i := 0; i < fanoutAtomic; i++ {
		s, band := i%fanoutSymbols, i/fanoutSymbols
		a := atomicRule{
			id:    fmt.Sprintf("fo-a%03d", i),
			sym:   fmt.Sprintf("s%03d", s),
			k:     10 + 20*band + r.Intn(20),
			query: queryBand[s] == band,
		}
		w.bySym[a.sym] = append(w.bySym[a.sym], len(w.atomics))
		w.atomics = append(w.atomics, a)
	}
	for j := 0; j < fanoutSeq; j++ {
		w.desks = append(w.desks, fmt.Sprintf("d%03d", j))
	}
	return w
}

func (w *fanout) levelsXML() string {
	var b strings.Builder
	b.WriteString("<levels>")
	for s := 0; s < fanoutSymbols; s++ {
		sym := fmt.Sprintf("s%03d", s)
		fmt.Fprintf(&b, `<sym name="%s">`, sym)
		for _, v := range w.weights[sym] {
			fmt.Fprintf(&b, "<w>%s</w>", v)
		}
		b.WriteString("</sym>")
	}
	b.WriteString("</levels>")
	return b.String()
}

func (w *fanout) atomicXML(a atomicRule) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<eca:rule xmlns:eca="%s" xmlns:fo="%s" xmlns:xq="%s" id="%s">`,
		protocol.ECANS, fanoutNS, services.XQueryNS, a.id)
	fmt.Fprintf(&b, `<eca:event><fo:tick sym="%s" p="$P" ref="$R"/></eca:event>`, a.sym)
	wAttr := ""
	if a.query {
		fmt.Fprintf(&b, `<eca:variable name="W"><eca:query><xq:query>for $w in doc('%s')//sym[@name='%s']/w return $w/text()</xq:query></eca:query></eca:variable>`,
			fanoutLevels, a.sym)
		wAttr = ` w="$W"`
	}
	fmt.Fprintf(&b, `<eca:test>$P &gt; %d</eca:test>`, a.k)
	fmt.Fprintf(&b, `<eca:action><fo:alert rule="%s" ref="$R" p="$P"%s/></eca:action></eca:rule>`, a.id, wAttr)
	return b.String()
}

func (w *fanout) seqXML(j int) string {
	desk := w.desks[j]
	return fmt.Sprintf(`<eca:rule xmlns:eca="%s" xmlns:fo="%s" xmlns:snoop="%s" id="fo-q%03d">`+
		`<eca:event><snoop:seq context="chronicle">`+
		`<snoop:event><fo:order desk="%s" id="$O"/></snoop:event>`+
		`<snoop:event><fo:fill desk="%s" id="$O"/></snoop:event>`+
		`</snoop:seq></eca:event>`+
		`<eca:action><fo:filled rule="fo-q%03d" ref="$O"/></eca:action></eca:rule>`,
		protocol.ECANS, fanoutNS, snoop.NS, j, desk, desk, j)
}

func (w *fanout) rules(string) []tenantRule {
	var out []tenantRule
	for _, a := range w.atomics {
		out = append(out, tenantRule{"", w.atomicXML(a)})
	}
	for j := range w.desks {
		out = append(out, tenantRule{"", w.seqXML(j)})
	}
	return out
}

func (w *fanout) setup(ctx context.Context, mw *middleware) (*deployment, error) {
	d, err := deploy(deploySpec{docs: map[string]string{fanoutLevels: w.levelsXML()}}, mw)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base, 1)
	defer c.close()
	for _, r := range w.rules("") {
		if err := c.registerRule(ctx, r.tenant, r.xml); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (w *fanout) openRate() float64 { return fanoutRate }
func (w *fanout) perPost() float64  { return fanoutBatch }

// tickWant is the reference evaluation of the atomic rules for one tick:
// constant match, then the $P > k test, then one action per distinct
// query result (or one action when the rule has no query).
func (w *fanout) tickWant(sym string, p int, ref string) []string {
	var out []string
	for _, i := range w.bySym[sym] {
		a := w.atomics[i]
		if p <= a.k {
			continue
		}
		attrs := map[string]string{"rule": a.id, "ref": ref, "p": strconv.Itoa(p)}
		if !a.query {
			out = append(out, actionKey("alert", attrs))
			continue
		}
		seen := map[string]bool{}
		for _, v := range w.weights[sym] {
			if seen[v] {
				continue
			}
			seen[v] = true
			attrs["w"] = v
			out = append(out, actionKey("alert", attrs))
		}
	}
	sort.Strings(out)
	return out
}

// source: batches of 16 events. About 70% are ticks, the rest orders and
// fills; every fill follows its order on the same caller, so the stream's
// admission order pairs them, and about 10% of orders are never filled.
// Symbols and desks are Zipf-skewed.
func (w *fanout) source(phase string, caller int) source {
	r := rand.New(rand.NewSource(subSeed(w.seed, "fanout", phase, caller)))
	syms := rand.NewZipf(r, 1.1, 4, fanoutSymbols-1)
	desks := rand.NewZipf(r, 1.1, 4, fanoutSeq-1)
	type open struct{ desk, id string }
	var toFill []open
	n := 0
	nextEvent := func() event {
		n++
		ref := fmt.Sprintf("%s-%d-%d", phase, caller, n)
		x := r.Intn(100)
		switch {
		case x < 15 && len(toFill) > 0:
			i := r.Intn(len(toFill))
			o := toFill[i]
			toFill[i] = toFill[len(toFill)-1]
			toFill = toFill[:len(toFill)-1]
			j, _ := strconv.Atoi(o.desk[1:])
			return event{
				Ref:  o.id,
				XML:  fmt.Sprintf(`<fo:fill xmlns:fo="%s" desk="%s" id="%s"/>`, fanoutNS, o.desk, o.id),
				Want: []string{actionKey("filled", map[string]string{"rule": fmt.Sprintf("fo-q%03d", j), "ref": o.id})},
			}
		case x < 30:
			desk := w.desks[desks.Uint64()]
			if r.Intn(10) != 0 {
				toFill = append(toFill, open{desk, ref})
			}
			return event{
				Ref: ref + "-order",
				XML: fmt.Sprintf(`<fo:order xmlns:fo="%s" desk="%s" id="%s"/>`, fanoutNS, desk, ref),
			}
		default:
			sym := fmt.Sprintf("s%03d", syms.Uint64())
			p := r.Intn(100)
			return event{
				Ref:  ref,
				XML:  fmt.Sprintf(`<fo:tick xmlns:fo="%s" sym="%s" p="%d" ref="%s"/>`, fanoutNS, sym, p, ref),
				Want: w.tickWant(sym, p, ref),
			}
		}
	}
	return sourceFunc(func() *post {
		p := &post{Batch: true}
		for i := 0; i < fanoutBatch; i++ {
			p.Events = append(p.Events, nextEvent())
		}
		return p
	})
}

func (w *fanout) verify(ctx context.Context, c *client) []string { return nil }

func (w *fanout) inputs() string {
	var b strings.Builder
	b.WriteString(w.levelsXML())
	for _, r := range w.rules("") {
		b.WriteString("\n" + r.xml)
	}
	return b.String()
}
