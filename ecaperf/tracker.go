package main

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/system"
	"repro/internal/xmltree"
)

// event is one generated event document and the actions the reference
// model expects it to cause. Every action echoes the event's ref.
type event struct {
	Ref  string
	XML  string
	Want []string // expected action keys, sorted (see actionKey)
}

// post is one POST /events request: a single XML document, or an NDJSON
// batch when Batch is set.
type post struct {
	Tenant string
	Batch  bool
	Events []event
}

// body renders the request body and its content type.
func (p *post) body() ([]byte, string) {
	if !p.Batch {
		return []byte(p.Events[0].XML), "application/xml"
	}
	var b strings.Builder
	for _, ev := range p.Events {
		line, _ := json.Marshal(ev.XML) // a string always marshals
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String()), "application/x-ndjson"
}

// actionKey is the canonical form of an action message: its local name
// and its non-namespace attributes in name order. Expected keys are built
// with the same function from the reference model's attribute maps.
func actionKey(local string, attrs map[string]string) string {
	names := make([]string, 0, len(attrs))
	for k := range attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(local)
	for _, k := range names {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(attrs[k])
	}
	return b.String()
}

func messageKey(msg *xmltree.Node) (ref, key string) {
	attrs := map[string]string{}
	for _, a := range msg.Attrs {
		if a.IsNamespaceDecl() {
			continue
		}
		attrs[a.Name.Local] = a.Value
	}
	return attrs["ref"], actionKey(msg.Name.Local, attrs)
}

// tracker matches the actions observed through Notifier.OnSend against
// each event's expected actions.
type tracker struct {
	mu     sync.Mutex
	evs    map[string]*evState
	stray  int // actions naming no known event
	events int
}

type evState struct {
	want   []string
	got    []string
	postOK bool
	doneAt time.Time
	w      *waiter
}

// waiter is closed once every event of one post has all its expected
// actions.
type waiter struct {
	left int
	ch   chan struct{}
}

func newTracker() *tracker { return &tracker{evs: map[string]*evState{}} }

// attach routes the system's action messages into the tracker.
func (t *tracker) attach(sys *system.System) {
	sys.Notifier.OnSend(func(n system.Notification) { t.onAction(n.Message) })
}

// expect registers a post's events before it is sent.
func (t *tracker) expect(p *post) *waiter {
	w := &waiter{ch: make(chan struct{})}
	t.mu.Lock()
	for _, ev := range p.Events {
		st := &evState{want: ev.Want, w: w}
		if len(ev.Want) > 0 {
			w.left++
		}
		t.evs[ev.Ref] = st
	}
	t.events += len(p.Events)
	if w.left == 0 {
		close(w.ch)
	}
	t.mu.Unlock()
	return w
}

func (t *tracker) onAction(msg *xmltree.Node) {
	if msg == nil {
		return
	}
	ref, key := messageKey(msg)
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.evs[ref]
	if st == nil {
		t.stray++
		return
	}
	st.got = append(st.got, key)
	if len(st.got) == len(st.want) && st.doneAt.IsZero() {
		st.doneAt = now
		st.w.left--
		if st.w.left == 0 {
			close(st.w.ch)
		}
	}
}

// replied records the HTTP outcome of a post.
func (t *tracker) replied(p *post, ok bool, at time.Time) {
	t.mu.Lock()
	for _, ev := range p.Events {
		st := t.evs[ev.Ref]
		st.postOK = ok
		if len(st.want) == 0 {
			st.doneAt = at
		}
	}
	t.mu.Unlock()
}

// settle reports, per event of the post, whether it completed correctly
// and when its last expected action arrived.
//
// A correct event is forgotten here, so the tracker's memory stays small;
// an action arriving for it later names no known event and counts as a
// failure.
func (t *tracker) settle(p *post, each func(ok bool, doneAt time.Time)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range p.Events {
		st := t.evs[ev.Ref]
		ok := st.correct()
		if ok {
			delete(t.evs, ev.Ref)
		}
		each(ok, st.doneAt)
	}
}

func (st *evState) correct() bool {
	if !st.postOK || len(st.got) != len(st.want) {
		return false
	}
	got := append([]string(nil), st.got...)
	sort.Strings(got)
	for i := range got {
		if got[i] != st.want[i] {
			return false
		}
	}
	return true
}

// failures counts, after the system has gone quiet, every event whose
// reply failed or whose actions were missing, extra or wrong, plus every
// action that named no event.
func (t *tracker) failures() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events, len(t.evs) + t.stray
}
