package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/projection"
	"repro/internal/seccomm"
)

// layer names one kind of timed call into the program.
type layer int

const (
	layerEncode    layer = iota // core AppendEncode in a generator
	layerDecode                 // core Decode inside projection's StageFrame
	layerSeal                   // seccomm Seal of a real frame or a dummy
	layerOpen                   // seccomm Open in a session
	layerOpenStage              // seccomm Open inside projection's StageFrame
	layerTruth                  // projection's Truth callback
	layerStage                  // projection Engine.StageFrame
	numLayers
)

var layerNames = [numLayers]string{
	"core.encode", "core.decode", "seccomm.seal", "seccomm.open",
	"seccomm.open", "projection.truth", "projection.stage",
}

// spanEvery keeps the spans of every spanEvery-th frame; every call is
// still timed and counted.
const spanEvery = 16

// maxSpans bounds the spans kept in memory; older ones are overwritten.
const maxSpans = 1 << 16

// spanRec is one timed call. Start and End are nanoseconds since the
// tracer was built; Parent is the id of the enclosing StageFrame span (0
// for top-level calls). Children of StageFrame are told neither sensor nor
// frame by the program, so they carry -1 and inherit both from Parent.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Sensor int    `json:"sensor"`
	Frame  int    `json:"frame"`
}

// tracer times calls into the program's layers from the benchmark's
// wrappers. While off, each wrapper costs one atomic load.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	calls [numLayers]atomic.Int64
	nanos [numLayers]atomic.Int64
	ids   atomic.Int64
	// stage is the id of the sampled StageFrame span in progress. The
	// workloads that stage run at GOMAXPROCS=1, where a StageFrame call is
	// not interleaved with another one in practice, so its children find
	// their parent here.
	stage atomic.Int64

	// since is when timing was last switched on; wall is how long the
	// last timed window lasted (ns).
	since atomic.Int64
	wall  atomic.Int64

	mu    sync.Mutex
	spans []spanRec
	next  int
}

func newTracer() *tracer {
	return &tracer{base: time.Now()}
}

// enable switches timing on (clearing the counts) or off.
func (t *tracer) enable(on bool) {
	if on {
		for l := range t.calls {
			t.calls[l].Store(0)
			t.nanos[l].Store(0)
		}
		t.since.Store(t.now())
	} else {
		t.wall.Store(t.now() - t.since.Load())
	}
	t.on.Store(on)
}

// now is the tracer's clock; wrappers call it only while tracing is on.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin returns the start of a timed call, or -1 while tracing is off.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return -1
	}
	return t.now()
}

// end accounts one call of l begun at t0 (a no-op for t0 < 0) and keeps
// its span when sampled.
func (t *tracer) end(l layer, t0 int64, sampled bool, id, parent int64, sensor, frame int) {
	if t0 < 0 {
		return
	}
	t1 := t.now()
	t.calls[l].Add(1)
	t.nanos[l].Add(t1 - t0)
	if !sampled {
		return
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	rec := spanRec{ID: id, Parent: parent, Name: layerNames[l], Start: t0, End: t1, Sensor: sensor, Frame: frame}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, rec)
	} else {
		t.spans[t.next] = rec
		t.next = (t.next + 1) % maxSpans
	}
	t.mu.Unlock()
}

// child accounts a call made by the program from inside StageFrame.
func (t *tracer) child(l layer, t0 int64) {
	if t0 < 0 {
		return
	}
	parent := t.stage.Load()
	t.end(l, t0, parent != 0, 0, parent, -1, -1)
}

func sampled(frame int) bool { return frame%spanEvery == 0 }

// mean is the average duration of one call of l in microseconds, and the
// number of calls.
func (t *tracer) mean(l layer) (float64, int64) {
	n := t.calls[l].Load()
	if n == 0 {
		return 0, 0
	}
	return float64(t.nanos[l].Load()) / float64(n) / 1e3, n
}

// total is the time spent in l in microseconds.
func (t *tracer) total(l layer) float64 { return float64(t.nanos[l].Load()) / 1e3 }

// writeSpans writes the kept spans as JSON lines to
// dir/<workload>-seed<seed>.jsonl.
func (t *tracer) writeSpans(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(t.spans[(t.next+i)%len(t.spans)]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedStager wraps the projection engine as the server's ingest.Stager
// and times StageFrame; its children (Open, Decode, Truth) find the
// sampled span through tracer.stage.
type tracedStager struct {
	eng    *projection.Engine
	tr     *tracer
	staged atomic.Int64 // StageFrame calls, to check against deliveries
}

func (s *tracedStager) Admit(sensorID, resume, total int) { s.eng.Admit(sensorID, resume, total) }

func (s *tracedStager) SessionEnd(sensorID int, completed bool) {
	s.eng.SessionEnd(sensorID, completed)
}

func (s *tracedStager) StageFrame(sensorID, index int, msg []byte) {
	s.staged.Add(1)
	t0 := s.tr.begin()
	if t0 < 0 {
		s.eng.StageFrame(sensorID, index, msg)
		return
	}
	var id int64
	smp := sampled(index)
	if smp {
		id = s.tr.ids.Add(1)
		s.tr.stage.Store(id)
	}
	s.eng.StageFrame(sensorID, index, msg)
	if smp {
		s.tr.stage.Store(0)
	}
	s.tr.end(layerStage, t0, smp, id, 0, sensorID, index)
}

// tracedDecoder times the core decoder projection calls.
type tracedDecoder struct {
	dec core.Decoder
	tr  *tracer
}

func (d tracedDecoder) Decode(payload []byte) (core.Batch, error) {
	t0 := d.tr.begin()
	b, err := d.dec.Decode(payload)
	d.tr.child(layerDecode, t0)
	return b, err
}

// tracedSealer times Seal and Open; stage marks the instance projection
// opens with, whose calls are children of StageFrame.
type tracedSealer struct {
	seccomm.Sealer
	tr    *tracer
	stage bool
}

// seal seals one frame; frame is -1 for a dummy.
func (s tracedSealer) seal(p []byte, sensor, frame int) ([]byte, error) {
	t0 := s.tr.begin()
	out, err := s.Sealer.Seal(p)
	s.tr.end(layerSeal, t0, frame >= 0 && sampled(frame), 0, 0, sensor, frame)
	return out, err
}

func (s tracedSealer) open(msg []byte, sensor, frame int) ([]byte, error) {
	t0 := s.tr.begin()
	out, err := s.Sealer.Open(msg)
	if s.stage {
		s.tr.child(layerOpenStage, t0)
	} else {
		s.tr.end(layerOpen, t0, sampled(frame), 0, 0, sensor, frame)
	}
	return out, err
}

// ladder fills the traced run's per-layer metrics and prints the ladder:
// each layer's cost per delivered frame beside the traced CPU per frame,
// and the gap the layers leave unexplained.
func ladder(res *result, tr *tracer, out *outcome, closed bool, untraced, traced window) {
	frames := float64(traced.frames())
	perFrame := func(l ...layer) float64 {
		sum := 0.0
		for _, x := range l {
			sum += tr.total(x)
		}
		return sum / frames
	}
	encode, _ := tr.mean(layerEncode)
	decode, _ := tr.mean(layerDecode)
	seal, _ := tr.mean(layerSeal)
	openSess, nOpen := tr.mean(layerOpen)
	openStage, nOpenStage := tr.mean(layerOpenStage)
	open := 0.0
	if n := nOpen + nOpenStage; n > 0 {
		open = (openSess*float64(nOpen) + openStage*float64(nOpenStage)) / float64(n)
	}
	stage, nStage := tr.mean(layerStage)
	appendSelf := 0.0
	if nStage > 0 {
		appendSelf = (tr.total(layerStage) - tr.total(layerOpenStage) - tr.total(layerDecode) - tr.total(layerTruth)) / float64(nStage)
	}
	res.set("core.encode_us", encode, "us")
	res.set("core.decode_us", decode, "us")
	res.set("seccomm.seal_us", seal, "us")
	res.set("seccomm.open_us", open, "us")
	res.set("projection.stage_us", stage, "us")
	res.set("staging.append_us", appendSelf, "us")
	cpu := traced.cpuPerFrame(false)
	rows := []struct {
		name string
		us   float64
	}{
		{"core.encode (generator)", perFrame(layerEncode)},
		{"seccomm.seal (generator, dummies included)", perFrame(layerSeal)},
		{"seccomm.open (session)", perFrame(layerOpen)},
		{"projection.stage, of which:", perFrame(layerStage)},
		{"  seccomm.open (projection)", perFrame(layerOpenStage)},
		{"  core.decode", perFrame(layerDecode)},
		{"  projection.truth", perFrame(layerTruth)},
		{"  staging.append (self time)", perFrame(layerStage) - perFrame(layerOpenStage, layerDecode, layerTruth)},
	}
	explained := perFrame(layerEncode, layerSeal, layerOpen, layerStage)
	res.set("ladder.cpu_us_per_frame", cpu, "us")
	res.set("ladder.explained_us_per_frame", explained, "us")
	res.set("ladder.unexplained_us_per_frame", cpu-explained, "us")
	// The overhead compares the two windows at nominal host speed.
	dFPS := traced.fps(closed) - untraced.fps(closed)
	dCPU := traced.cpuPerFrame(true) - untraced.cpuPerFrame(true)
	res.set("trace.overhead.throughput_fps", dFPS, "frames/s")
	res.set("trace.overhead.cpu_us_per_frame", dCPU, "us")
	for _, m := range perLayer {
		if v, ok := out.layers[m.name]; ok {
			res.set(m.name, v, m.unit)
		} else if _, done := res.metrics[m.name]; !done {
			// The workload never calls this layer.
			res.set(m.name, 0, m.unit)
		}
	}

	res.note("ladder over %.0f traced frames, raw us per delivered frame (host speed %.3f):", frames, traced.speed())
	for _, r := range rows {
		res.note("  %-44s %9.3f", r.name, r.us)
	}
	res.note("  %-44s %9.3f", "sum of timed layers", explained)
	res.note("  %-44s %9.3f", "cpu_us_per_frame (traced)", cpu)
	res.note("  %-44s %9.3f", "unexplained: runtime, sockets, FrameReader,", cpu-explained)
	res.note("  %-44s", "  server loop, projection workers, harness")
	res.note("tracing overhead: %+.1f frames/s (%.1f untraced), %+.3f us/frame CPU (%.3f untraced)",
		dFPS, untraced.fps(closed), dCPU, untraced.cpuPerFrame(true))
	for _, n := range out.notes {
		res.note("%s", n)
	}
}
