package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/compilecache"
	"repro/internal/domain/travel"
	"repro/internal/grh"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/store"
	"repro/internal/system"
	"repro/internal/tenant"
	"repro/internal/xmltree"
)

// deploySpec says what one deployment of the daemon looks like. Every
// field maps to an ecad flag; the zero value is plain `ecad`.
type deploySpec struct {
	docs       map[string]string // -doc uri=file: documents loaded into the store
	opaqueDoc  string            // the class store behind /opaque/store (-travel)
	distribute bool              // -distribute
	dataDir    string            // -data-dir (fsync and snapshot cadence at their defaults)
	quotas     []string          // -tenant-quotas specs
}

// deployment is one running system served on a loopback listener, built
// the way cmd/ecad builds it. It lives in the benchmark's own process, so
// nothing it starts can outlive the benchmark.
type deployment struct {
	sys        *system.System
	base       string
	srv        *http.Server
	serveDone  chan struct{}
	stopSample func()
}

// ecadConfig builds the system.Config ecad builds when given no tuning
// flags. Each field names the flag it mirrors.
func ecadConfig(hub *obs.Hub, st *store.Store, quotas map[string]tenant.Quotas) system.Config {
	retry := grh.DefaultRetryPolicy
	retry.MaxAttempts = 2 + 1 // -retries 2: two retries after the first attempt
	return system.Config{
		Namespaces: travel.Namespaces(), // ecad always offers the travel prefixes
		// -log-level info -log-format text; the records are discarded so
		// the terminal stays quiet, but they are still built.
		Log:     obs.NewLogger(io.Discard, "text", slog.LevelInfo),
		PProf:   true,                     // -pprof
		Obs:     hub,                      // -metrics
		Retry:   retry,                    // -retries 2
		Breaker: grh.DefaultBreakerPolicy, // -breaker-failures 5 -breaker-cooldown 30s
		Store:   st,                       // -data-dir, with -fsync interval and -snapshot-every defaults
		// -cache-entries 0, -shard-tuples 0, -max-pending-events 0 and
		// -detect-partitions 0 are the zero values of Cache, Partition,
		// MaxPendingEvents and DetectorPartitions.
		TenantQuotas: quotas, // -tenant-quotas
	}
}

// parseQuotas reads -tenant-quotas specs into Config.TenantQuotas.
func parseQuotas(specs []string) (map[string]tenant.Quotas, error) {
	var quotas map[string]tenant.Quotas
	for _, spec := range specs {
		id, q, err := tenant.ParseQuotaSpec(spec)
		if err != nil {
			return nil, err
		}
		if quotas == nil {
			quotas = map[string]tenant.Quotas{}
		}
		quotas[id] = q
	}
	return quotas, nil
}

// deploy builds, loads and serves a system. Rules are not registered
// here: callers post them over HTTP, as ecactl would.
func deploy(spec deploySpec, mw *middleware) (*deployment, error) {
	// -compile-cache-entries default. Purging makes every set-up pay the
	// cold compile cost a fresh ecad process pays.
	compilecache.Default.SetCapacity(compilecache.DefaultCapacity)
	compilecache.Default.Purge()

	hub := obs.NewHub() // -metrics
	quotas, err := parseQuotas(spec.quotas)
	if err != nil {
		return nil, err
	}
	var st *store.Store
	if spec.dataDir != "" {
		st, err = store.Open(spec.dataDir, store.Options{
			Fsync:         store.FsyncInterval,        // -fsync interval
			SnapshotEvery: store.DefaultSnapshotEvery, // -snapshot-every
			Obs:           hub,
		})
		if err != nil {
			return nil, err
		}
	}
	cfg := ecadConfig(hub, st, quotas)
	sys, err := system.NewLocal(cfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, err
	}
	d := &deployment{sys: sys, serveDone: make(chan struct{})}
	d.stopSample = obs.StartRuntimeSampler(hub.Metrics(), obs.DefaultSampleInterval)
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	for uri, src := range spec.docs {
		doc, err := xmltree.ParseString(src)
		if err != nil {
			return fail(fmt.Errorf("doc %s: %w", uri, err))
		}
		sys.Store.Put(uri, doc)
	}
	var opaque *xmltree.Node
	if spec.opaqueDoc != "" {
		if opaque, err = xmltree.ParseString(spec.opaqueDoc); err != nil {
			return fail(fmt.Errorf("opaque doc: %w", err))
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	d.base = "http://" + ln.Addr().String()
	var h http.Handler = sys.Mux(opaque, travel.Namespaces())
	if mw != nil {
		h = mw.wrap(h)
	}
	d.srv = &http.Server{Handler: h}
	go func() {
		defer close(d.serveDone)
		d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if spec.distribute {
		if err := sys.Distribute(d.base); err != nil {
			return fail(err)
		}
	}
	if st != nil {
		start := time.Now()
		_, err := sys.Recover()
		if mw != nil {
			mw.rec.record("store.recover", start, time.Now(), "")
		}
		if err != nil {
			return fail(err)
		}
	}
	return d, nil
}

// close stops the listener and every connection, drains the engine,
// closes the durable store and stops the runtime sampler. Safe to call
// more than once.
func (d *deployment) close() {
	if d == nil {
		return
	}
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := d.srv.Shutdown(ctx); err != nil {
			d.srv.Close()
		}
		cancel()
		<-d.serveDone
		d.srv = nil
	}
	if d.sys != nil {
		d.sys.Close()
		d.sys = nil
	}
	if d.stopSample != nil {
		d.stopSample()
		d.stopSample = nil
	}
}

// client is the load generator's HTTP side: one transport capped at
// nproc connections, shared by every caller.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and body.
func (c *client) do(ctx context.Context, method, path, tenantID, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if tenantID != "" {
		req.Header.Set(protocol.TenantHeader, tenantID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// registerRule posts one eca:rule document to /engine/rules.
func (c *client) registerRule(ctx context.Context, tenantID, ruleXML string) error {
	status, body, err := c.do(ctx, http.MethodPost, "/engine/rules", tenantID, "application/xml", []byte(ruleXML))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /engine/rules: HTTP %d: %s", status, strings.TrimSpace(string(body)))
	}
	return nil
}

// deleteRule unregisters a rule by id.
func (c *client) deleteRule(ctx context.Context, tenantID, id string) error {
	status, body, err := c.do(ctx, http.MethodDelete, "/engine/rules/"+id, tenantID, "", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("DELETE /engine/rules/%s: HTTP %d: %s", id, status, strings.TrimSpace(string(body)))
	}
	return nil
}

// ruleSet lists every registered rule as "tenant/id".
func (c *client) ruleSet(ctx context.Context) (map[string]bool, error) {
	status, body, err := c.do(ctx, http.MethodGet, "/engine/rules", "", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /engine/rules: HTTP %d", status)
	}
	var list struct {
		Rules []struct {
			ID     string `json:"id"`
			Tenant string `json:"tenant"`
		} `json:"rules"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, r := range list.Rules {
		out[r.Tenant+"/"+r.ID] = true
	}
	return out, nil
}

// health reads /healthz.
func (c *client) health(ctx context.Context) (*system.Health, error) {
	status, body, err := c.do(ctx, http.MethodGet, "/healthz", "", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /healthz: HTTP %d", status)
	}
	var h system.Health
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// scrape reads and parses /metrics, the way ecaload does.
func (c *client) scrape(ctx context.Context) (*obs.Exposition, error) {
	status, body, err := c.do(ctx, http.MethodGet, "/metrics", "", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	return obs.ParseExposition(bytes.NewReader(body))
}
