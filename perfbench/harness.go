package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/ingest"
)

// workload is one traffic shape. why is the reason it is in the benchmark,
// kept word for word in BENCHMARK.json; procs is the GOMAXPROCS it runs at,
// chosen by measured run-to-run spread. closed marks a closed loop, whose
// rate, latency and set-up are CPU-bound and so reported at nominal host
// speed (see measure.go).
type workload struct {
	name   string
	why    string
	procs  int
	closed bool
	start  func(o *options, tr *tracer) (instance, error)
}

var workloads = []workload{
	{
		name:   "stream",
		why:    "2 sensors upload a backlog on one long-lived connection each, closed loop (256-frame window), AGE frames: codec, FrameReader, session delivery, staging, projection (GOMAXPROCS=1)",
		procs:  1,
		closed: true,
		start:  startStream,
	},
	{
		name:  "paced",
		why:   "2 sensors on the defended link: constant pacer (2 ms slots, 3 ms generation gap), ChaCha20-sealed real and dummy frames; prices pacer, seal/open and freshness (GOMAXPROCS=1)",
		procs: 1,
		start: startPaced,
	},
	{
		name:   "gateway",
		why:    "thousands of duty-cycled sensors reconnect through a 2-node cluster gateway, 2 connections at a time: hello, resume, registry, final ack, proxy hop; no codec (GOMAXPROCS=1)",
		procs:  1,
		closed: true,
		start:  startGateway,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEnd and perLayer name every metric the two modes print, with its
// unit; BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"throughput_fps", "frames/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_frame", "us"},
	{"allocs_per_frame", "count"},
	{"wire_bytes_per_frame", "B"},
	{"delivered_frac", "ratio"},
	{"mem_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"core.encode_us", "us"},
	{"core.decode_us", "us"},
	{"seccomm.seal_us", "us"},
	{"seccomm.open_us", "us"},
	{"projection.stage_us", "us"},
	{"staging.append_us", "us"},
	{"projection.lag_frames.mae", "frames"},
	{"projection.lag_frames.events", "frames"},
	{"projection.lag_frames.privacy", "frames"},
	{"projection.drain_ms", "ms"},
	{"ingest.client_send_us", "us"},
	{"ingest.frame_gap_us", "us"},
	{"ingest.open_ms", "ms"},
	{"ingest.final_ack_ms", "ms"},
	{"ingest.connect_p50_ms", "ms"},
	{"ingest.connect_p99_ms", "ms"},
	{"ingest.retries_per_kconn", "count"},
	{"ingest.pacer_slot_late_us.p50", "us"},
	{"ingest.pacer_slot_late_us.p99", "us"},
	{"ingest.dummy_frac", "ratio"},
	{"ingest.aoi_us", "us"},
	{"cluster.connect_direct_ms", "ms"},
	{"cluster.proxy_bytes_per_frame", "B"},
	{"cluster.routed_per_conn", "count"},
	{"ladder.cpu_us_per_frame", "us"},
	{"ladder.explained_us_per_frame", "us"},
	{"ladder.unexplained_us_per_frame", "us"},
	{"trace.overhead.throughput_fps", "frames/s"},
	{"trace.overhead.cpu_us_per_frame", "us"},
}

// options are one run's settings. The zero-valued fault knobs exist for
// the benchmark's own tests, which prove the checks can fail.
type options struct {
	seed    int64
	window  time.Duration
	trace   bool
	spanDir string
	// setups is how many times the system is built, connected and warmed
	// up; setup_s is their median and the last one is measured.
	setups int
	// warmup scales every workload's warm-up work (1 = full size).
	warmup float64

	// corruptFrame, when positive, makes the receiving session flip one
	// byte of that delivered frame (counted from 1) before the check.
	corruptFrame int64
	// dummyPad, when positive, lengthens every pacer dummy by that many
	// bytes, so the link no longer carries one frame length.
	dummyPad int
}

func defaultOptions(seed int64, window time.Duration, trace bool) *options {
	return &options{seed: seed, window: window, trace: trace, setups: 5, warmup: 1}
}

// instance is one built, connected and warmed-up system. Its generators run
// until stop, which drains the system and runs the correctness checks.
type instance interface {
	// delivered counts the real frames delivered to sessions so far that
	// the window's throughput is made of.
	delivered() int64
	// latency holds the window's generation → Session.Frame samples.
	latency() *reservoir
	// stop ends the run; measured says the harness timed a window on this
	// instance, so its window-only figures must be present.
	stop(measured bool) (*outcome, error)
}

// outcome is what stop reports: frame accounting, failed checks, the
// clients' transport stats and the workload's own per-layer figures.
type outcome struct {
	attempted int64 // frames the generators produced
	verified  int64 // frames delivered exactly once, byte-exact
	failures  []string
	stats     ingest.ClientStats
	hellos    int64 // hellos the clients wrote (accepted plus rejected)
	layers    map[string]float64
	notes     []string // extra lines for the traced run's report
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// addStats sums one Run's transport stats into the outcome.
func (o *outcome) addStats(st ingest.ClientStats) {
	s := &o.stats
	s.DialAttempts += st.DialAttempts
	s.DialFailures += st.DialFailures
	s.FramesSent += st.FramesSent
	s.WireBytesSent += st.WireBytesSent
	s.WriteRetries += st.WriteRetries
	s.WriteDeadlineHits += st.WriteDeadlineHits
	s.Reconnects += st.Reconnects
	s.SoftRejects += st.SoftRejects
	s.DummyFrames += st.DummyFrames
	s.DummyBytesSent += st.DummyBytesSent
	s.AoIMicrosTotal += st.AoIMicrosTotal
	s.AoIMicrosMax = max(s.AoIMicrosMax, st.AoIMicrosMax)
}

// wireBytesPerFrame is what the clients put on the wire per real frame:
// payloads, 2-byte length prefixes, dummies and 5-byte hellos.
func (o *outcome) wireBytesPerFrame() float64 {
	s := o.stats
	if s.FramesSent == 0 {
		return 0
	}
	bytes := s.WireBytesSent + s.DummyBytesSent + 2*(s.FramesSent+s.DummyFrames) + 5*int(o.hellos)
	return float64(bytes) / float64(s.FramesSent)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload builds the system o.setups times, measures the last build for
// o.window and checks every build's outputs.
func runWorkload(w workload, o *options) (*result, error) {
	prev := runtime.GOMAXPROCS(w.procs)
	defer runtime.GOMAXPROCS(prev)
	tr := newTracer()
	pr := newProber()
	res := &result{workload: w.name, metrics: map[string]metric{}}
	var outs []*outcome
	var setups, rawSetups []float64
	var inst instance
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		before := pr.run()
		t0 := time.Now()
		var err error
		if inst, err = w.start(o, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0).Seconds()
		rawSetups = append(rawSetups, took)
		if w.closed {
			took /= float64(before+pr.run()) / 2 / float64(probeNominal)
		}
		setups = append(setups, took)
		if i < o.setups-1 {
			out, err := inst.stop(false)
			if err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
			outs = append(outs, out)
		}
	}

	var untraced, traced window
	if o.trace {
		untraced = measure(inst, o.window/2, nil, pr)
		traced = measure(inst, o.window/2, tr, pr)
	} else {
		untraced = measure(inst, o.window, nil, pr)
	}
	lat := inst.latency()
	final, err := inst.stop(true)
	if err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	outs = append(outs, final)

	for _, out := range outs {
		res.attempted += out.attempted
		res.failed += out.attempted - out.verified
		res.failures = append(res.failures, out.failures...)
	}
	if untraced.frames() <= 0 || (o.trace && traced.frames() <= 0) {
		res.failures = append(res.failures, "no frames delivered in the timed window")
	}
	if o.trace {
		ladder(res, tr, final, w.closed, untraced, traced)
		if o.spanDir != "" {
			if err := tr.writeSpans(o.spanDir, w.name, o.seed); err != nil {
				res.note("spans not written: %v", err)
			}
		}
	} else {
		// Closed-loop rates, latencies and set-up scale with host speed,
		// so they are normalised and the median over groups is reported.
		// The paced workload's latency is set by its schedule and timer
		// wake-ups instead, and host stalls only ever add to it: on a
		// shared host whole stretches of tens of seconds lift a group's
		// p99 from 2.2 to 4-10 ms while quiet groups agree within a few
		// percent. Its CPU cost is mostly wake-ups too (1.5 context
		// switches and a third system time per frame), which the probe
		// does not track. Its percentiles and cost are therefore the first
		// quartile over groups, which holds while a quarter of the window
		// is quiet and still moves with any change that slows every group.
		var speeds []float64
		across := quietQuartile
		if w.closed {
			speeds = untraced.speeds()
			across = 0.5
		}
		p50, n50 := lat.quantile(0.50, across, speeds)
		p99, n99 := lat.quantile(0.99, across, speeds)
		if n50 == 0 || n99 == 0 {
			res.failures = append(res.failures, fmt.Sprintf("latency: %d samples are too few for a p99", lat.count()))
		}
		res.set("throughput_fps", untraced.byGroup(func(g window) float64 { return g.fps(w.closed) }, 0.5), "frames/s")
		res.set("latency_p50_ms", p50/1e6, "ms")
		res.set("latency_p99_ms", p99/1e6, "ms")
		res.set("cpu_us_per_frame", untraced.byGroup(func(g window) float64 { return g.cpuPerFrame(true) }, across), "us")
		res.set("allocs_per_frame", untraced.allocsPerFrame(), "count")
		res.set("wire_bytes_per_frame", final.wireBytesPerFrame(), "B")
		res.set("mem_peak_mb", peakRSSMB(), "MB")
		res.set("setup_s", median(setups), "s")
		res.note("window %.2fs in %d slices, %d frames; %d latency samples; rates are medians over groups of %d slices, costs and percentiles the %.2f-quantile over %d such groups",
			untraced.wall().Seconds(), len(untraced.slices), untraced.frames(), lat.count(), groupSlices, across, n99)
		res.note("host speed %.3f (probe time / %v); raw %.1f frames/s, %.3f us CPU per frame",
			untraced.speed(), probeNominal, untraced.fps(false), untraced.cpuPerFrame(false))
		res.note("%s", untraced.detail())
		res.note("setup_s is the median of %d set-ups: %s (raw %s)", len(setups), fmtList(setups), fmtList(rawSetups))
	}
	if res.attempted <= 0 {
		res.failures = append(res.failures, "no frames attempted")
		res.attempted = 1
		res.failed = 1
	}
	if len(res.failures) > 0 {
		// A failed check counts every frame of the run as undelivered.
		res.failed = res.attempted
	}
	if !o.trace {
		res.set("delivered_frac", float64(res.attempted-res.failed)/float64(res.attempted), "ratio")
	}
	for name, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.failures = append(res.failures, fmt.Sprintf("metric %s is not finite", name))
			res.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	res.correct = len(res.failures) == 0
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtList(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.4f", x)
	}
	return out
}

// splitmix advances a SplitMix64 state and returns the next output: the
// benchmark's one source of seeded randomness.
func splitmix(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix hashes a seed and two coordinates into 64 well-spread bits.
func mix(seed int64, a, b int) uint64 {
	s := uint64(seed) ^ uint64(a)<<32 ^ uint64(b)
	return splitmix(&s)
}

// errStop is what a generator returns once the run is over: Terminal, so
// the client ends the connection without spending its reconnect budget.
var errStop = errors.New("perfbench: generator stopped")
