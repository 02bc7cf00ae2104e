package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The benchmark was sized on a shared 2-vCPU virtual machine (Intel Xeon,
// 2.0 GHz) whose speed drifts: for seconds to minutes at a time the same
// CPU-bound code runs up to 1.9x slower (a fixed microbenchmark ranged
// 3.9-7.6 us/op in 1-second samples). No statistic over one run removes that, because a
// whole run can fall in a slow phase. So the window is cut into slices,
// and before and after every slice a fixed calibration probe — a kernel
// owned by the benchmark, never by the program — is timed. A slice's
// speed is the mean of its two probe times over probeNominal; figures of
// CPU-bound work are divided by it (times) or multiplied by it (rates),
// which reports them at the speed of a host on which the probe takes
// probeNominal. A change to the program cannot move the probe, so a
// regression still shows in full.
const (
	sliceLen     = 100 * time.Millisecond
	probeNominal = 340 * time.Microsecond
	probeWords   = 1 << 15 // 256 KiB of probe state
	probeSteps   = 1 << 17
)

// prober runs the calibration probe: random read-modify-writes over a
// buffer the size of a core's L2 cache.
type prober struct{ buf []uint64 }

func newProber() *prober { return &prober{buf: make([]uint64, probeWords)} }

func (p *prober) run() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < probeSteps; i++ {
		v := splitmix(&x)
		p.buf[v&(probeWords-1)] += v
	}
	return time.Since(t0)
}

// mark is the process state at one edge of a slice.
type mark struct {
	at      time.Time
	frames  int64
	ru      syscall.Rusage
	mallocs uint64
	gcs     uint64
}

// takeMark reads the counters without stopping the world.
func takeMark(inst instance) mark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	m := mark{at: time.Now(), frames: inst.delivered(), mallocs: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru)
	return m
}

func (m mark) cpu() time.Duration { return time.Duration(m.ru.Utime.Nano() + m.ru.Stime.Nano()) }

// slice is one measured slice and the host's speed around it (1 = the
// probe ran in probeNominal; 2 = twice as slow).
type slice struct {
	a, b  mark
	speed float64
}

// window is one timed window: its slices, back to back but for the probes
// between them.
type window struct{ slices []slice }

func (w window) frames() int64 {
	var n int64
	for _, s := range w.slices {
		n += s.b.frames - s.a.frames
	}
	return n
}

func (w window) wall() time.Duration {
	var d time.Duration
	for _, s := range w.slices {
		d += s.b.at.Sub(s.a.at)
	}
	return d
}

// fps is the frame rate over the window; normalized, each slice counts
// at the nominal host speed.
func (w window) fps(normalized bool) float64 {
	var frames float64
	for _, s := range w.slices {
		f := float64(s.b.frames - s.a.frames)
		if normalized {
			f *= s.speed
		}
		frames += f
	}
	return frames / w.wall().Seconds()
}

// cpuPerFrame is process CPU time per frame in microseconds.
func (w window) cpuPerFrame(normalized bool) float64 {
	var cpu float64
	for _, s := range w.slices {
		c := float64(s.b.cpu() - s.a.cpu())
		if normalized {
			c /= s.speed
		}
		cpu += c
	}
	return cpu / 1e3 / float64(w.frames())
}

func (w window) allocsPerFrame() float64 {
	var n uint64
	for _, s := range w.slices {
		n += s.b.mallocs - s.a.mallocs
	}
	return float64(n) / float64(w.frames())
}

// byGroup is the across-quantile (0.5: the median) of f over the window's
// groups of groupSlices slices: like the latency percentiles, a rate or
// cost is taken per group of about two seconds so that one contended
// stretch cannot move it.
func (w window) byGroup(f func(window) float64, across float64) float64 {
	var vals []float64
	for i := 0; i < len(w.slices); i += groupSlices {
		vals = append(vals, f(window{w.slices[i:min(i+groupSlices, len(w.slices))]}))
	}
	sort.Float64s(vals)
	return interpolate(vals, across)
}

// speed is the window's time-weighted host speed.
func (w window) speed() float64 {
	var sum float64
	for _, s := range w.slices {
		sum += s.speed * s.b.at.Sub(s.a.at).Seconds()
	}
	return sum / w.wall().Seconds()
}

func (w window) speeds() []float64 {
	out := make([]float64, len(w.slices))
	for i, s := range w.slices {
		out[i] = s.speed
	}
	return out
}

// detail breaks the window's CPU down for the report: user and system
// time, context switches and garbage collections per thousand frames.
func (w window) detail() string {
	var user, sys, vcsw, ivcsw, gcs float64
	for _, s := range w.slices {
		user += float64(s.b.ru.Utime.Nano() - s.a.ru.Utime.Nano())
		sys += float64(s.b.ru.Stime.Nano() - s.a.ru.Stime.Nano())
		vcsw += float64(s.b.ru.Nvcsw - s.a.ru.Nvcsw)
		ivcsw += float64(s.b.ru.Nivcsw - s.a.ru.Nivcsw)
		gcs += float64(s.b.gcs - s.a.gcs)
	}
	f := float64(w.frames())
	return fmt.Sprintf("raw user %.3f us/frame, system %.3f us/frame; per 1000 frames %.1f voluntary and %.1f forced context switches, %.2f GCs",
		user/1e3/f, sys/1e3/f, 1000*vcsw/f, 1000*ivcsw/f, 1000*gcs/f)
}

// measure collects garbage, then times a window of d in slices; with tr
// set, the layer timers run for the window.
func measure(inst instance, d time.Duration, tr *tracer, pr *prober) window {
	runtime.GC()
	lat := inst.latency()
	lat.reset(true)
	if tr != nil {
		tr.enable(true)
	}
	var w window
	end := time.Now().Add(d)
	before := pr.run()
	for k := 0; time.Until(end) > 0; k++ {
		lat.setSlice(k)
		a := takeMark(inst)
		time.Sleep(min(sliceLen, time.Until(end)))
		b := takeMark(inst)
		lat.setSlice(-1)
		after := pr.run()
		w.slices = append(w.slices, slice{a: a, b: b, speed: float64(before+after) / 2 / float64(probeNominal)})
		before = after
	}
	if tr != nil {
		tr.enable(false)
	}
	lat.reset(false)
	return w
}

// reservoir keeps a bounded, uniformly sampled subset of a stream of
// durations (nanoseconds), each tagged with the slice it fell in, so
// percentiles stay exact-valued while the harness's memory stays flat
// however long the run. Samples between slices are dropped.
type reservoir struct {
	mu    sync.Mutex
	on    bool
	slice int32
	rng   uint64
	seen  int64
	buf   []sample
}

type sample struct {
	slice int32
	ns    float64
}

const reservoirSize = 1 << 16

func newReservoir(seed int64) *reservoir {
	return &reservoir{rng: uint64(seed)*0x9E3779B97F4A7C15 + 1, buf: make([]sample, 0, reservoirSize)}
}

// reset empties the reservoir and switches recording on or off.
func (r *reservoir) reset(on bool) {
	r.mu.Lock()
	if on {
		r.seen, r.buf, r.slice = 0, r.buf[:0], 0
	}
	r.on = on
	r.mu.Unlock()
}

// setSlice tags the samples that follow; -1 drops them.
func (r *reservoir) setSlice(k int) {
	r.mu.Lock()
	r.slice = int32(k)
	r.mu.Unlock()
}

func (r *reservoir) add(ns int64) {
	r.mu.Lock()
	if r.on && r.slice >= 0 {
		r.seen++
		s := sample{r.slice, float64(ns)}
		if len(r.buf) < cap(r.buf) {
			r.buf = append(r.buf, s)
		} else if j := splitmix(&r.rng) % uint64(r.seen); j < uint64(len(r.buf)) {
			r.buf[j] = s
		}
	}
	r.mu.Unlock()
}

func (r *reservoir) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

// groupSlices is how many slices form one latency group. Percentiles are
// taken per group of about two seconds and a quantile over the groups is
// reported, so a burst of host preemption inside one group (a timer-driven
// tail can jump from 2 to 7 ms on a contended shared host) does not move
// the figure. Samples recorded outside a sliced window form one group.
const groupSlices = 20

// quietQuartile is the quantile over groups reported for the latency and
// CPU cost of an open-loop, timer-driven workload (see runWorkload).
const quietQuartile = 0.25

// quantile returns the across-quantile over slice groups (0.5: their
// median) of each group's q-quantile (nearest rank), and how many groups it
// rests on; with speeds set, each sample is divided by its slice's speed
// first. Only groups with at least ten samples beyond the quantile count,
// the least any reported percentile may rest on; with none it returns 0
// groups.
func (r *reservoir) quantile(q, across float64, speeds []float64) (float64, int) {
	groups := map[int32][]float64{}
	r.mu.Lock()
	for _, x := range r.buf {
		v := x.ns
		if speeds != nil {
			v /= speeds[x.slice]
		}
		g := x.slice / groupSlices
		groups[g] = append(groups[g], v)
	}
	r.mu.Unlock()
	var per []float64
	for _, s := range groups {
		sort.Float64s(s)
		n := len(s)
		i := max(0, int(math.Ceil(q*float64(n)))-1)
		if n-1-i >= 10 {
			per = append(per, s[i])
		}
	}
	if len(per) == 0 {
		return 0, 0
	}
	sort.Float64s(per)
	return interpolate(per, across), len(per)
}

// interpolate is the p-quantile of sorted xs, linear between neighbouring
// ranks, so that p = 0.5 gives the median; 0 for no values.
func interpolate(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
