package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sassi/internal/cuda"
	"sassi/internal/sim"
)

// span is one recorded interval at a public boundary of the pipeline.
// Aggregate spans (handler dispatch) fold every dispatch of one launch
// into a single record: a profile pass makes hundreds of thousands of
// dispatches, and keeping each would make the traced run measure the
// tracer. For those, Count is the number of dispatches, Busy their summed
// duration and Covered the part of the launch during which at least one
// dispatch ran (dispatches of concurrent SMs overlap).
type span struct {
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Parent  int32         `json:"parent"`
	Job     int32         `json:"job"`
	Count   int64         `json:"count,omitempty"`
	Busy    time.Duration `json:"busy_ns,omitempty"`
	Covered time.Duration `json:"covered_ns,omitempty"`
	Lanes   int64         `json:"lanes,omitempty"`
}

// coverage is the part of its parent's interval a span accounts for.
func (s *span) coverage() time.Duration {
	if s.Count > 0 {
		return s.Covered
	}
	return s.End - s.Start
}

// tracer keeps spans in memory until the run ends. Only the main
// goroutine calls begin/end: workload runs, launches and compiles are all
// synchronous on it. A nil tracer records nothing, so the untraced run
// pays only the nil checks.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	job   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), job: -1} }

func (t *tracer) parent() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: t.parent(), Job: t.job})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// layerTimes sums, per span name, total duration, self time (duration
// minus what the span's children cover) and the number of intervals.
func (t *tracer) layerTimes() (total, self map[string]time.Duration, count map[string]int64) {
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int64{}
	covered := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			covered[p] += t.spans[i].coverage()
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Count > 0 {
			total[s.Name] += s.Busy
			self[s.Name] += s.Busy
			count[s.Name] += s.Count
			continue
		}
		count[s.Name]++
		total[s.Name] += s.End - s.Start
		self[s.Name] += s.End - s.Start - covered[i]
	}
	return total, self, count
}

// activeLanes sums the active lanes over all handler dispatches.
func (t *tracer) activeLanes() int64 {
	var lanes int64
	for i := range t.spans {
		lanes += t.spans[i].Lanes
	}
	return lanes
}

// write saves the spans as JSON, creating the directory if needed.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedDispatcher wraps the device's handler dispatcher (the
// sassi.Runtime) and times each dispatch. SMs dispatch concurrently, so
// the state is mutex-guarded; inflight tracks overlap to measure the
// interval any dispatch covers.
type tracedDispatcher struct {
	inner sim.Dispatcher

	mu       sync.Mutex
	inflight int
	since    time.Time
	agg      span
}

func (d *tracedDispatcher) Dispatch(dev *sim.Device, w *sim.Warp, handlerID int) error {
	lanes := int64(w.NumActive())
	d.mu.Lock()
	start := time.Now()
	if d.inflight == 0 {
		d.since = start
	}
	d.inflight++
	d.mu.Unlock()

	err := d.inner.Dispatch(dev, w, handlerID)

	d.mu.Lock()
	now := time.Now()
	d.inflight--
	if d.inflight == 0 {
		d.agg.Covered += now.Sub(d.since)
	}
	d.agg.Busy += now.Sub(start)
	d.agg.Count++
	d.agg.Lanes += lanes
	d.mu.Unlock()
	return err
}

// take returns the launch's aggregate and resets it. Launches are
// synchronous, so no dispatch is in flight when it is called.
func (d *tracedDispatcher) take() span {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := d.agg
	d.agg = span{}
	return a
}

// layerCounts accumulates the per-layer counters of a traced run.
type layerCounts struct {
	memcpyBytes       uint64
	launches          uint64
	warpInstrs        uint64
	injectedWarp      uint64
	scoreboardStalls  uint64
	globalTransaction uint64
	l1Hits, l1Access  uint64
	l2Hits, l2Access  uint64
	dramTransactions  uint64
	sassInstrs        uint64
	injectedInstrs    uint64
	runsFailed        uint64
}

// observe subscribes the tracer to one context: a span per launch, the
// launch's folded handler dispatches, copy volume, and the simulator's
// per-launch counters. Call it after any handler runtime is attached.
func (r *runner) observe(ctx *cuda.Context) {
	if r.tr == nil {
		return
	}
	dev := ctx.Device()
	var disp *tracedDispatcher
	if dev.Dispatcher != nil {
		disp = &tracedDispatcher{inner: dev.Dispatcher}
		dev.Dispatcher = disp
	}
	var launch int32
	ctx.Subscribe(cuda.LaunchCallbacks{
		PreLaunch: func(string, int) { launch = r.tr.begin("sim.launch") },
		PostLaunch: func(_ string, _ int, st *sim.KernelStats, _ error) {
			if disp != nil {
				if a := disp.take(); a.Count > 0 {
					a.Name, a.Parent, a.Job = "handlers.dispatch", launch, r.tr.job
					a.Start, a.End = r.tr.spans[launch].Start, time.Since(r.tr.t0)
					r.tr.spans = append(r.tr.spans, a)
				}
			}
			r.tr.end(launch)
			r.lay.launches++
			if st != nil {
				r.lay.warpInstrs += st.WarpInstrs
				r.lay.injectedWarp += st.InjectedWarpInstrs
				r.lay.scoreboardStalls += st.ScoreboardStalls
				r.lay.globalTransaction += st.GlobalTransactions
			}
		},
	})
	ctx.SubscribeMemcpy(func(_ cuda.MemcpyDir, n uint64) { r.lay.memcpyBytes += n })
}

// collectMem adds a finished context's cache and DRAM counters.
func (r *runner) collectMem(ctx *cuda.Context) {
	if r.tr == nil {
		return
	}
	dev := ctx.Device()
	l1, l2 := dev.L1Stats(), dev.L2Stats()
	r.lay.l1Hits += l1.Hits
	r.lay.l1Access += l1.Accesses
	r.lay.l2Hits += l2.Hits
	r.lay.l2Access += l2.Accesses
	r.lay.dramTransactions += dev.DRAMTransactions()
}
