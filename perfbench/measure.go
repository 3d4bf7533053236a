package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// --- order statistics ---

// pct returns the nearest-rank q-th percentile (0 < q <= 100) of xs,
// which it sorts in place; 0 when xs is empty.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q/100*float64(len(xs)))) - 1
	return xs[max(0, min(idx, len(xs)-1))]
}

// median returns the median of xs (sorting it in place); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- Go runtime counters ---

// runtimeCounters is a reading of the process-wide runtime counters the
// benchmark turns into allocation and GC metrics.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapWatch keeps the highest live heap the garbage collector marked
// during a phase, polled every few milliseconds (the value changes once
// per GC cycle). The live heap excludes garbage, so the peak depends on
// what the program holds, not on where GC cycles happen to fall.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapWatch) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// processCPU returns the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase measures one measured phase: wall time, allocation, GC work and
// peak heap between begin and end.
type phase struct {
	start time.Time
	cpu   time.Duration
	rt    runtimeCounters
	heap  *heapWatch
}

// phaseStats is what a finished phase reports.
type phaseStats struct {
	elapsed    time.Duration
	cpu        time.Duration // process CPU time, user and system
	allocBytes uint64
	gcCycles   uint64
	gcCPUFrac  float64
	peakHeapMB float64
}

// beginPhase collects garbage left by set-up, then starts measuring.
func beginPhase() *phase {
	runtime.GC()
	return &phase{start: time.Now(), cpu: processCPU(), rt: readRuntime(), heap: watchHeap()}
}

func (p *phase) end() phaseStats {
	elapsed := time.Since(p.start)
	cpu := processCPU() - p.cpu
	peak := p.heap.end()
	rt := readRuntime()
	return phaseStats{
		elapsed:    elapsed,
		cpu:        cpu,
		allocBytes: rt.allocBytes - p.rt.allocBytes,
		gcCycles:   rt.gcCycles - p.rt.gcCycles,
		gcCPUFrac:  ratio(rt.gcCPU-p.rt.gcCPU, rt.totalCPU-p.rt.totalCPU),
		peakHeapMB: peak,
	}
}

// opSample is one completed op: its latency in milliseconds and its op
// class.
type opSample struct {
	ms    float64
	class int
}

// setEndToEndCommon sets the end-to-end metrics every workload reports:
// ops is the number of ops the phase completed, cpuPerOp the process CPU
// time of one op in milliseconds. Wall-clock times are printed by the
// workloads but not reported as metrics: see perfbench/README.md.
func setEndToEndCommon(res *result, ps phaseStats, setups []float64, ops int, cpuPerOp float64) {
	res.set("setup_s", median(setups), "s")
	res.set("cpu_ms_per_op", cpuPerOp, "ms")
	res.set("peak_heap_mb", ps.peakHeapMB, "MiB")
	res.set("alloc_kb_per_op", ratio(float64(ps.allocBytes)/1024, float64(ops)), "KiB")
	res.set("op_success_ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.notef("%d ops; process CPU %.3f s over %.3f s", ops, ps.cpu.Seconds(), ps.elapsed.Seconds())
}

// setGoLayer sets the go.* per-layer metrics of a measured phase.
func setGoLayer(res *result, ps phaseStats, ops int64) {
	res.set("go.gc_cpu_fraction", ps.gcCPUFrac, "ratio")
	res.set("go.gc_cycles_per_op", ratio(float64(ps.gcCycles), float64(ops)), "count")
}

// --- spans ---

// spanRec is one span the benchmark records around a call into a layer:
// its name ("layer.Function"), an attribute (dataset, representation or
// analysis), start and end in nanoseconds since the tracer started, the
// index of the enclosing span (-1 at top level) and the op it belongs to.
type spanRec struct {
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced run pays only for the time.Now calls it needs anyway.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name, attr string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Name: name, Attr: attr, Start: now, End: now, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(name, attr string, parent int32, op int64, fn func()) time.Duration {
	id := t.begin(name, attr, parent, op)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns, per span, its duration minus the time its direct
// children cover (children of one span run one after another on the
// goroutine that opened it, so their durations add up).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// durations returns the durations, in the given unit, of every span with
// this name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

// write stores the spans as JSON lines in dir/<workload>-seed<n>.jsonl.
func (t *tracer) write(dir string, cfg config) error {
	if t == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
