package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/protocol"
)

// journal is ecad -data-dir at its defaults (fsync interval, default
// snapshot cadence) with two tenants: the default one and "acme", named
// via X-ECA-Tenant and given a rate quota far above the offered load.
// Each has 20 cheap rules. Two thirds of the events go as single XML
// POSTs and one third as NDJSON batches of 32: with an even split the
// latency median sits exactly between the single-post and the batch
// latency modes and swings by a fifth between runs. Beside the event
// load a rule is
// registered and deleted at a low fixed rate. Set-up is System.Recover of
// a journal left by a seeded prior phase.
//
// Why: most of the time goes to admission, xmltree parsing, tenant quotas,
// store append/ack/snapshot/recovery and batch sequencing, and almost none
// to GRH or queries. The rule churn writes to the rule table, matcher and
// journal while events read them, so a gain for events that costs
// registration shows up.
type journal struct {
	seed    int64
	tenants []string // "" is the default tenant
	kept    []ruleRef
	tmpRoot string // where data directories go; removed by the caller
	prior   string // the prior phase's journal directory
}

const (
	journalNS    = "http://example.org/bench/journal"
	journalRules = 20
	journalKeys  = 26 // keys k20..k25 match no rule
	journalBatch = 32
	// The acme tenant's quota, as ecad -tenant-quotas takes it: a rate
	// far above anything two callers can offer.
	journalQuota = "acme:rate=1000000,burst=1000000"
	// Open-loop rate in events/s: about a third of the closed-loop
	// capacity measured at the seed commit on a 2-vCPU host.
	journalRate = 2000
)

func newJournal(seed int64, tmpRoot string) *journal {
	return &journal{seed: seed, tenants: []string{"", "acme"}, tmpRoot: tmpRoot}
}

func tenantLabel(t string) string {
	if t == "" {
		return "public"
	}
	return t
}

type ruleRef struct{ tenant, id string }

func (w *journal) ruleXML(tenantID string, i int) string {
	return fmt.Sprintf(`<eca:rule xmlns:eca="%s" xmlns:jn="%s" id="jn-r%02d">`+
		`<eca:event><jn:ping key="k%d" v="$V" ref="$R"/></eca:event>`+
		`<eca:action><jn:pong rule="%s-r%02d" v="$V" ref="$R"/></eca:action></eca:rule>`,
		protocol.ECANS, journalNS, i, i, tenantLabel(tenantID), i)
}

// churnRuleXML is a rule whose event is never posted: registering and
// deleting it exercises the rule table, matcher and journal only.
func churnRuleXML(id string) string {
	return fmt.Sprintf(`<eca:rule xmlns:eca="%s" xmlns:jn="%s" id="%s">`+
		`<eca:event><jn:never id="$I"/></eca:event>`+
		`<eca:action><jn:pong rule="%s" ref="$I"/></eca:action></eca:rule>`,
		protocol.ECANS, journalNS, id, id)
}

func (w *journal) rules(string) []tenantRule {
	var out []tenantRule
	for _, t := range w.tenants {
		for i := 0; i < journalRules; i++ {
			out = append(out, tenantRule{t, w.ruleXML(t, i)})
		}
	}
	return out
}

// expectedRules is the rule set after the prior phase's churn.
func (w *journal) expectedRules() map[string]bool {
	out := map[string]bool{}
	for _, t := range w.tenants {
		for i := 0; i < journalRules; i++ {
			out[t+"/"+fmt.Sprintf("jn-r%02d", i)] = true
		}
	}
	for _, k := range w.kept {
		out[k.tenant+"/"+k.id] = true
	}
	return out
}

// prepare runs the seeded prior phase and keeps its journal directory.
func (w *journal) prepare(ctx context.Context) error {
	dir, err := w.runPrior(ctx)
	w.prior = dir
	return err
}

func (w *journal) setup(ctx context.Context, mw *middleware) (*deployment, error) {
	return w.setupFrom(ctx, w.prior, mw)
}

// runPrior runs the seeded prior phase once: register the rules, post a
// few hundred events and churn rules (keeping every third). It returns a
// copy of the journal directory taken before the system closes.
func (w *journal) runPrior(ctx context.Context) (string, error) {
	dir, err := os.MkdirTemp(w.tmpRoot, "prior-")
	if err != nil {
		return "", err
	}
	d, err := deploy(deploySpec{dataDir: dir, quotas: []string{journalQuota}}, nil)
	if err != nil {
		return "", err
	}
	defer d.close()
	tr := newTracker()
	tr.attach(d.sys)
	c := newClient(d.base, 1)
	defer c.close()
	for _, r := range w.rules("") {
		if err := c.registerRule(ctx, r.tenant, r.xml); err != nil {
			return "", err
		}
	}
	src := w.source("prior", 0)
	for i := 0; i < 200; i++ {
		send(ctx, c, tr, src.next(), func(bool, time.Time) {})
	}
	r := rand.New(rand.NewSource(subSeed(w.seed, "journal", "churn", 0)))
	w.kept = nil
	for i := 0; i < 30; i++ {
		t := w.tenants[r.Intn(len(w.tenants))]
		id := fmt.Sprintf("churn-prior-%02d", i)
		if err := c.registerRule(ctx, t, churnRuleXML(id)); err != nil {
			return "", err
		}
		if i%3 == 0 {
			w.kept = append(w.kept, ruleRef{tenant: t, id: id})
			continue
		}
		if err := c.deleteRule(ctx, t, id); err != nil {
			return "", err
		}
	}
	if _, failed := tr.failures(); failed > 0 {
		return "", fmt.Errorf("journal prior phase: %d events failed", failed)
	}
	// The journal is copied while the daemon still runs, as a crash would
	// leave it: recovery then replays its records, not just a snapshot
	// written by a graceful close.
	crash, err := os.MkdirTemp(w.tmpRoot, "crash-")
	if err != nil {
		return "", err
	}
	return crash, copyDir(dir, crash)
}

// setup recovers a fresh copy of the prior phase's journal.
func (w *journal) setupFrom(ctx context.Context, prior string, mw *middleware) (*deployment, error) {
	dir, err := os.MkdirTemp(w.tmpRoot, "data-")
	if err != nil {
		return nil, err
	}
	if err := copyDir(prior, dir); err != nil {
		return nil, err
	}
	return deploy(deploySpec{dataDir: dir, quotas: []string{journalQuota}}, mw)
}

// checkRules compares the live rule set with the expected one.
func (w *journal) checkRules(ctx context.Context, c *client) error {
	got, err := c.ruleSet(ctx)
	if err != nil {
		return err
	}
	want := w.expectedRules()
	var diff []string
	for k := range want {
		if !got[k] {
			diff = append(diff, "missing "+k)
		}
	}
	for k := range got {
		if !want[k] {
			diff = append(diff, "extra "+k)
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Errorf("rule set after churn differs: %s", strings.Join(diff, ", "))
	}
	return nil
}

func (w *journal) openRate() float64 { return journalRate }

// journalSingles is how many single-event POSTs precede each batch.
const journalSingles = 2 * journalBatch

// perPost is the mean events per POST.
func (w *journal) perPost() float64 {
	return float64(journalSingles+journalBatch) / float64(journalSingles+1)
}

// source alternates 64 single-event XML POSTs with one NDJSON batch of 32;
// each POST goes to a random tenant.
// Keys are Zipf-skewed and a few match no rule.
func (w *journal) source(phase string, caller int) source {
	r := rand.New(rand.NewSource(subSeed(w.seed, "journal", phase, caller)))
	keys := rand.NewZipf(r, 1.1, 2, journalKeys-1)
	n, posts := 0, 0
	ev := func(t string) event {
		n++
		ref := fmt.Sprintf("%s-%d-%d", phase, caller, n)
		k := int(keys.Uint64())
		v := r.Intn(1000)
		e := event{
			Ref: ref,
			XML: fmt.Sprintf(`<jn:ping xmlns:jn="%s" key="k%d" v="%d" ref="%s"/>`, journalNS, k, v, ref),
		}
		if k < journalRules {
			e.Want = []string{actionKey("pong", map[string]string{
				"rule": fmt.Sprintf("%s-r%02d", tenantLabel(t), k), "v": fmt.Sprint(v), "ref": ref,
			})}
		}
		return e
	}
	return sourceFunc(func() *post {
		posts++
		p := &post{Tenant: w.tenants[r.Intn(len(w.tenants))]}
		if posts%(journalSingles+1) != 0 {
			p.Events = []event{ev(p.Tenant)}
			return p
		}
		p.Batch = true
		for i := 0; i < journalBatch; i++ {
			p.Events = append(p.Events, ev(p.Tenant))
		}
		return p
	})
}

// verify checks, after the run, that every admitted event was acked and
// that the rule set is the expected one again.
func (w *journal) verify(ctx context.Context, c *client) []string {
	var errs []string
	h, err := c.health(ctx)
	switch {
	case err != nil:
		errs = append(errs, err.Error())
	case h.Store == nil:
		errs = append(errs, "healthz has no store section")
	case h.Store.PendingEvents != 0:
		errs = append(errs, fmt.Sprintf("%d admitted events never acked", h.Store.PendingEvents))
	}
	if err := w.checkRules(ctx, c); err != nil {
		errs = append(errs, err.Error())
	}
	return errs
}

func (w *journal) inputs() string {
	var b strings.Builder
	for _, r := range w.rules("") {
		b.WriteString(r.xml + "\n")
	}
	r := rand.New(rand.NewSource(subSeed(w.seed, "journal", "churn", 0)))
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "churn %d tenant %q\n", i, w.tenants[r.Intn(len(w.tenants))])
	}
	return b.String()
}

// copyDir copies the regular files of one directory into another.
func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
