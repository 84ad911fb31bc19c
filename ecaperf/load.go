package main

import (
	"context"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// source yields one caller's posts, deterministically from the seed; nil
// means it has no more.
type source interface {
	next() *post
}

// actionWait bounds how long a caller waits for an event's actions after
// the reply; a missing action then counts as a failure, not a hang.
const actionWait = 10 * time.Second

// send posts p, waits for its expected actions and reports whether each
// event completed correctly and when.
func send(ctx context.Context, c *client, tr *tracker, p *post, each func(ok bool, doneAt time.Time)) {
	w := tr.expect(p)
	body, ct := p.body()
	status, _, err := c.do(ctx, http.MethodPost, "/events", p.Tenant, ct, body)
	tr.replied(p, err == nil && status >= 200 && status < 300, time.Now())
	t := time.NewTimer(actionWait)
	select {
	case <-w.ch:
	case <-t.C:
	case <-ctx.Done():
	}
	t.Stop()
	tr.settle(p, each)
}

// closedResult is what a closed-loop phase measured.
type closedResult struct {
	completed int
	elapsed   time.Duration
	cpu       time.Duration // process user+sys CPU
	allocs    uint64        // heap allocations (objects)
	gcCPU     float64       // GC share of process CPU over the phase
}

// closedLoop runs one caller per source, each posting its next request
// only after the previous one's reply and actions, until d elapses.
func closedLoop(ctx context.Context, c *client, tr *tracker, srcs []source, d time.Duration) closedResult {
	cpu0, alloc0, gc0 := cpuTime(), heapAllocs(), gcCPUSeconds()
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	completed := 0
	var wg sync.WaitGroup
	for _, src := range srcs {
		wg.Add(1)
		go func(src source) {
			defer wg.Done()
			n := 0
			for ctx.Err() == nil && time.Now().Before(deadline) {
				p := src.next()
				if p == nil {
					break
				}
				send(ctx, c, tr, p, func(ok bool, _ time.Time) {
					if ok {
						n++
					}
				})
			}
			mu.Lock()
			completed += n
			mu.Unlock()
		}(src)
	}
	wg.Wait()
	r := closedResult{completed: completed, elapsed: time.Since(start)}
	r.cpu = cpuTime() - cpu0
	r.allocs = heapAllocs() - alloc0
	gc1 := gcCPUSeconds()
	if total := gc1[1] - gc0[1]; total > 0 {
		r.gcCPU = (gc1[0] - gc0[0]) / total
	}
	return r
}

// openResult is what an open-loop phase measured.
type openResult struct {
	latencies []float64 // per event, ms from due time to last expected action
	lags      []float64 // per post, ms the sender started late
	sent      int
}

// openLoop offers rate events/s on a fixed schedule split across the
// sources: source i owns schedule slots i, i+n, i+2n, ... Each event is
// timed from when its post was due, so a stall also charges the posts
// queued behind it.
func openLoop(ctx context.Context, c *client, tr *tracker, srcs []source, rate, perPost float64, d time.Duration) openResult {
	interval := time.Duration(perPost / rate * float64(time.Second))
	n := len(srcs)
	start := time.Now().Add(10 * time.Millisecond)
	deadline := start.Add(d)
	var mu sync.Mutex
	var res openResult
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src source) {
			defer wg.Done()
			var lat, lag []float64
			sent := 0
			for k := i; ctx.Err() == nil; k += n {
				due := start.Add(time.Duration(k) * interval)
				if due.After(deadline) {
					break
				}
				if wait := time.Until(due); wait > 0 {
					if !sleepCtx(ctx, wait) {
						break
					}
				}
				p := src.next()
				if p == nil {
					break
				}
				lag = append(lag, ms(time.Since(due)))
				sent += len(p.Events)
				send(ctx, c, tr, p, func(ok bool, doneAt time.Time) {
					if ok {
						lat = append(lat, ms(doneAt.Sub(due)))
					}
				})
			}
			mu.Lock()
			res.latencies = append(res.latencies, lat...)
			res.lags = append(res.lags, lag...)
			res.sent += sent
			mu.Unlock()
		}(i, src)
	}
	wg.Wait()
	return res
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys) == 0 {
		return 0
	}
	if len(ys)%2 == 1 {
		return ys[len(ys)/2]
	}
	return (ys[len(ys)/2-1] + ys[len(ys)/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// heapAllocs is the cumulative count of heap objects allocated. It reads
// runtime.MemStats, which flushes every P's cache and so counts exactly,
// at the cost of a brief stop-the-world: call it only at phase edges.
func heapAllocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// gcCPUSeconds returns the runtime's estimate of GC CPU and total CPU.
func gcCPUSeconds() [2]float64 {
	s := readMetrics("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// liveHeap is the heap the last GC cycle marked live: the program's
// retained state (instances, detector buffers, sent notifications),
// without the garbage that accumulates between cycles, whose size depends
// on GC timing rather than on the code under test.
func liveHeap() uint64 {
	return readMetrics("/gc/heap/live:bytes")[0].Value.Uint64()
}

// heapSampler records the highest live heap seen until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: liveHeap()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.peak = max(h.peak, liveHeap())
			}
		}
	}()
	return h
}

// finish stops the sampler, runs one last GC so the final state counts,
// and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.peak = max(h.peak, liveHeap())
	return float64(h.peak) / (1 << 20)
}

// buffered holds a fixed batch of one caller's posts, generated before a
// measured phase so that generating inputs and their reference outputs
// stays outside it. It yields nil once the batch is used up.
type buffered struct {
	src   source
	queue []*post
}

func (b *buffered) next() *post {
	if len(b.queue) == 0 {
		return nil
	}
	p := b.queue[0]
	b.queue[0] = nil
	b.queue = b.queue[1:]
	return p
}

// fillAll tops each source's queue up to about events events' worth of
// posts, split evenly over the sources. Posts a phase left unsent stay
// queued first: a later post may depend on them (a fill on its order).
func fillAll(bs []*buffered, events, perPost float64) []source {
	out := make([]source, len(bs))
	for i, b := range bs {
		for n := max(1, int(events/perPost/float64(len(bs))+0.5)); len(b.queue) < n; {
			b.queue = append(b.queue, b.src.next())
		}
		out[i] = b
	}
	return out
}
