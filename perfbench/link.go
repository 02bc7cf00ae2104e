package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fixedpoint"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/projection"
	"repro/internal/seccomm"
)

// The stream and paced workloads share one shape: linkSensors, each a
// client on one long-lived connection to a single ingest server whose
// delivery path feeds a projection engine (decode → stage → project).
// stream sends AGE frames as fast as a closed loop allows; paced seals
// them and releases one frame per pacer slot, dummies filling the gaps.
const (
	linkSensors = 2
	frameT      = 50 // measurements per batch
	frameD      = 6  // features per measurement
	frameBytes  = 64 // AGE's fixed message size M_B
	writeBatch  = 8  // frames the stream client gathers into one write

	// streamWindow bounds how far a stream sensor's generator may run
	// ahead of the fleet's slowest delivery: the closed loop's population.
	// Without it the loop fills the kernel's socket buffers and latency
	// measures them; counting against the slowest sensor keeps the
	// sensors in step, as sensors sampling at one rate are, so the
	// privacy worker's watermark (and the records staging retains for it)
	// does not random-walk with scheduling. The generator waits only
	// between write batches, so no gathered frame is held back.
	streamWindow = 256
	// ringSize is how many recent frames a sensor keeps for the byte-exact
	// check; it must exceed everything that can be in flight.
	ringSize = 1024

	paceInterval = 2 * time.Millisecond // one release slot
	paceGap      = 3 * time.Millisecond // one generated frame

	streamWarmup = 20000 // frames per sensor before the window opens
	pacedWarmup  = 60

	// unbounded is a stream's assigned length while it runs; the closing
	// handshake replaces it with the frames actually sent.
	unbounded = 1 << 30
)

// frameConfig is the sensing task every AGE frame encodes: T=50, D=6 in
// Q3.13, sized to a 64-byte message.
func frameConfig() core.Config {
	return core.Config{T: frameT, D: frameD, Format: fixedpoint.Format{Width: 16, NonFrac: 3}, TargetBytes: frameBytes}
}

// frameLabel is a frame's synthetic event label. Event frames carry twice
// the samples of quiet ones, as an adaptive policy samples densely around
// events, so an unpadded encoding would leak the label through its size.
func frameLabel(seed int64, sensor, frame int) int { return int(mix(seed, sensor, frame) & 1) }

// batchGen fills one reusable batch with frame content that is a pure
// function of (seed, sensor, frame).
type batchGen struct {
	b   core.Batch
	max float64
}

func newBatchGen() *batchGen {
	cfg := frameConfig()
	g := &batchGen{max: cfg.Format.Max()}
	k := frameT / 2
	g.b = core.Batch{Indices: make([]int, k), Values: make([][]float64, k)}
	for i := range g.b.Values {
		g.b.Values[i] = make([]float64, frameD)
	}
	return g
}

func (g *batchGen) fill(seed int64, sensor, frame int) core.Batch {
	k := frameT / 4
	if frameLabel(seed, sensor, frame) == 1 {
		k = frameT / 2
	}
	b := core.Batch{Indices: g.b.Indices[:k], Values: g.b.Values[:k]}
	x := mix(seed, sensor, frame)
	for i := range b.Indices {
		b.Indices[i] = i * frameT / k
		for j := range b.Values[i] {
			b.Values[i][j] = (float64(int32(splitmix(&x))) / (1 << 31)) * g.max
		}
	}
	return b
}

// linkRun is one built stream or paced system.
type linkRun struct {
	o        *options
	tr       *tracer
	paced    bool
	epoch    time.Time
	reg      *metrics.Registry
	srv      *ingest.Server
	serveErr chan error
	eng      *projection.Engine
	stager   *tracedStager
	opener   tracedSealer // the sessions' Open; stateless, so shared
	sensors  []*linkSensor
	byID     map[int]*linkSensor // read-only once built

	ctx      context.Context
	cancel   context.CancelFunc
	stopping atomic.Bool
	clients  sync.WaitGroup
	frames   atomic.Int64 // real frames delivered
	lat      *reservoir
	slotLate *reservoir
	corrupt  atomic.Int64

	mu       sync.Mutex // guards out and the per-layer sums below
	out      outcome
	gapNs    int64 // frame gaps and their count, traced window only
	gapN     int64
	openNs   int64 // Run start → Handler.Open
	openN    int64
	ackNs    int64 // last Frame (or Open) → Run return, completing connections
	ackN     int64
	minLen   int // shortest and longest wire frame, paced
	maxLen   int
	sendNs   int64 // time the clients spent inside Next, traced window only
	lagSum   [3]float64
	lagN     int64
	sampling sync.WaitGroup
}

// linkSensor is one sensor: the client's FrameSource and the state its
// server-side sessions check deliveries against.
type linkSensor struct {
	run  *linkRun
	id   int
	enc  *core.AGE
	gen  *batchGen
	seal tracedSealer
	ring [ringSize][]byte // encoded payloads by frame % ringSize
	gst  [ringSize]int64  // generation instants (ns since epoch)

	total     atomic.Int64
	generated atomic.Int64
	delivered atomic.Int64
	verified  atomic.Int64
	waitFor   atomic.Int64 // delivered count the generator waits for; -1 when not waiting
	wake      chan struct{}
	warm      chan struct{}
	warmAt    int64
	// Per connection: written by the client goroutine, read by sessions.
	runAt  atomic.Int64
	seekAt atomic.Int64
	resume atomic.Int64

	// Client goroutine only.
	pos, base int
}

func startStream(o *options, tr *tracer) (instance, error) { return startLink(o, tr, false) }
func startPaced(o *options, tr *tracer) (instance, error)  { return startLink(o, tr, true) }

// startLink builds the server, engine, encoders and sealers, connects the
// sensors and returns once every sensor has delivered its warm-up frames.
func startLink(o *options, tr *tracer, paced bool) (*linkRun, error) {
	r := &linkRun{
		o: o, tr: tr, paced: paced, epoch: time.Now(),
		reg:      metrics.NewRegistry(),
		byID:     map[int]*linkSensor{},
		lat:      newReservoir(o.seed),
		slotLate: newReservoir(o.seed + 1),
	}
	r.slotLate.reset(true)
	r.minLen = math.MaxInt
	r.ctx, r.cancel = context.WithCancel(context.Background())
	cfg := frameConfig()
	age, err := core.NewAGE(cfg)
	if err != nil {
		return nil, err
	}
	var key [32]byte
	ks := uint64(o.seed)
	for i := range key {
		key[i] = byte(splitmix(&ks))
	}
	pcfg := projection.Config{
		T: cfg.T, D: cfg.D,
		Decode: tracedDecoder{dec: age, tr: tr},
		Truth: func(sensorID, index int) ([][]float64, int, bool) {
			t0 := tr.begin()
			l := frameLabel(o.seed, sensorID, index)
			tr.child(layerTruth, t0)
			return nil, l, true
		},
	}
	if paced {
		sl, err := seccomm.NewSealer(seccomm.ChaCha20Stream, key[:])
		if err != nil {
			return nil, err
		}
		r.opener = tracedSealer{Sealer: sl, tr: tr}
		stageOpen := tracedSealer{Sealer: sl, tr: tr, stage: true}
		pcfg.Open = func(msg []byte) ([]byte, error) { return stageOpen.open(msg, -1, -1) }
		pcfg.Unmark = true
	}
	r.eng = projection.New(pcfg)
	r.stager = &tracedStager{eng: r.eng, tr: tr}
	r.srv, err = ingest.NewServer(ingest.ServerConfig{
		Handler: ingest.HandlerFuncs{OpenFunc: r.open},
		Stager:  r.stager,
		Metrics: r.reg,
	})
	if err == nil {
		err = r.srv.Listen("127.0.0.1:0")
	}
	if err != nil {
		r.eng.Close()
		return nil, err
	}
	r.serveErr = make(chan error, 1)
	go func() { r.serveErr <- r.srv.Serve() }()

	warm := streamWarmup
	if paced {
		warm = pacedWarmup
	}
	warm = max(1, int(float64(warm)*o.warmup))
	ids := sensorIDs(o.seed, linkSensors)
	for _, id := range ids {
		s := &linkSensor{run: r, id: id, gen: newBatchGen(), wake: make(chan struct{}, 1), warm: make(chan struct{}), warmAt: int64(warm)}
		if s.enc, err = core.NewAGE(cfg); err != nil {
			break
		}
		if paced {
			sl, serr := seccomm.NewSealer(seccomm.ChaCha20Stream, key[:])
			if serr != nil {
				err = serr
				break
			}
			s.seal = tracedSealer{Sealer: sl, tr: tr}
		}
		s.total.Store(unbounded)
		s.waitFor.Store(-1)
		r.sensors = append(r.sensors, s)
		r.byID[id] = s
	}
	if err != nil {
		r.srv.Close()
		r.eng.Close()
		return nil, err
	}
	for _, s := range r.sensors {
		r.clients.Add(1)
		go s.stream()
	}
	for _, s := range r.sensors {
		select {
		case <-s.warm:
		case <-time.After(60 * time.Second):
			r.stop(false)
			return nil, fmt.Errorf("sensor %d did not finish its warm-up", s.id)
		}
	}
	if o.trace {
		r.sampling.Add(1)
		go r.sampleLag()
	}
	return r, nil
}

// sensorIDs draws n distinct sensor ids from the seed.
func sensorIDs(seed int64, n int) []int {
	st := uint64(seed) ^ 0x5EED
	seen := map[int]bool{}
	var ids []int
	for len(ids) < n {
		id := int(splitmix(&st) % (1 << 24))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// slowest is the fewest frames any sensor has delivered.
func (r *linkRun) slowest() int64 {
	m := r.sensors[0].delivered.Load()
	for _, x := range r.sensors[1:] {
		m = min(m, x.delivered.Load())
	}
	return m
}

func (r *linkRun) clock() int64        { return int64(time.Since(r.epoch)) }
func (r *linkRun) delivered() int64    { return r.frames.Load() }
func (r *linkRun) latency() *reservoir { return r.lat }

func (r *linkRun) fail(format string, args ...any) {
	r.mu.Lock()
	r.out.fail(format, args...)
	r.mu.Unlock()
}

// stream is one sensor's client goroutine: the long-lived connection, then
// once the generator stops a closing handshake — a second connection
// assigned exactly the frames already sent, which the server confirms
// complete with its final ack.
func (s *linkSensor) stream() {
	r := s.run
	defer r.clients.Done()
	ccfg := ingest.ClientConfig{
		Addr:       r.srv.Addr().String(),
		SensorID:   s.id,
		WriteBatch: writeBatch,
		Seed:       int64(mix(r.o.seed, s.id, -1) >> 1),
		Metrics:    r.reg,
	}
	if r.paced {
		filler := make([]byte, frameBytes+r.o.dummyPad)
		ccfg.Pacer = ingest.PacerConfig{
			Mode:     ingest.PaceConstant,
			Interval: paceInterval,
			Dummy:    func() ([]byte, error) { return s.seal.seal(ingest.MarkDummy(filler), s.id, -1) },
		}
	}
	client := ingest.NewClient(ccfg)
	s.runAt.Store(r.clock())
	st, err := client.Run(r.ctx, s)
	r.mu.Lock()
	r.out.addStats(st)
	r.mu.Unlock()
	if !errors.Is(err, errStop) {
		r.fail("sensor %d: stream ended early: %v", s.id, err)
		return
	}
	s.total.Store(s.generated.Load())
	s.runAt.Store(r.clock())
	st, err = client.Run(r.ctx, s)
	done := r.clock()
	r.mu.Lock()
	r.out.addStats(st)
	if err == nil {
		// The closing connection carries no frames: its final ack follows
		// the resume ack at once.
		r.ackNs += done - s.seekAt.Load()
		r.ackN++
	}
	r.mu.Unlock()
	if err != nil {
		r.fail("sensor %d: closing handshake: %v", s.id, err)
	}
}

// Total implements ingest.FrameSource.
func (s *linkSensor) Total() int { return int(s.total.Load()) }

// Seek implements ingest.FrameSource. Every frame generated before must
// have been delivered: the server's resume index says so.
func (s *linkSensor) Seek(resume int) error {
	r := s.run
	now := r.clock()
	if g := s.generated.Load(); int64(resume) != g {
		return fmt.Errorf("server resumes at frame %d but %d were sent", resume, g)
	}
	s.resume.Store(int64(resume))
	s.seekAt.Store(now)
	s.pos, s.base = resume, resume
	return nil
}

// LastGap implements ingest.TimedSource: the paced sensor generates one
// frame every paceGap. The stream client ignores it.
func (s *linkSensor) LastGap() time.Duration { return paceGap }

// Next implements ingest.FrameSource: encode the next batch with AGE (and,
// when paced, mark and seal it). Its return is the frame's generation
// instant for the stream workload.
func (s *linkSensor) Next(ctx context.Context) ([]byte, error) {
	r := s.run
	if r.stopping.Load() {
		return nil, ingest.Terminal(errStop)
	}
	i := s.pos
	if !r.paced && (i-s.base)%writeBatch == 0 {
		if err := s.awaitWindow(ctx, i); err != nil {
			return nil, err
		}
	}
	t0 := r.tr.begin()
	slot := i % ringSize
	b := s.gen.fill(r.o.seed, s.id, i)
	e0 := r.tr.begin()
	p, err := s.enc.AppendEncode(s.ring[slot][:0], b)
	r.tr.end(layerEncode, e0, sampled(i), 0, 0, s.id, i)
	if err != nil {
		return nil, ingest.Terminal(fmt.Errorf("encode frame %d: %w", i, err))
	}
	s.ring[slot] = p
	msg := p
	if r.paced {
		if msg, err = s.seal.seal(ingest.MarkReal(p), s.id, i); err != nil {
			return nil, ingest.Terminal(fmt.Errorf("seal frame %d: %w", i, err))
		}
	}
	s.pos++
	now := r.clock()
	s.gst[slot] = now
	s.generated.Store(int64(s.pos))
	if t0 >= 0 {
		d := r.tr.now() - t0
		r.mu.Lock()
		r.sendNs += d
		r.mu.Unlock()
	}
	return msg, nil
}

// awaitWindow blocks while frame i is streamWindow or more ahead of the
// fleet's slowest delivery, until half the window has drained.
func (s *linkSensor) awaitWindow(ctx context.Context, i int) error {
	r := s.run
	for int64(i)-r.slowest() >= streamWindow {
		if r.stopping.Load() {
			// The laggard may already have stopped for good.
			return ingest.Terminal(errStop)
		}
		target := int64(i) - streamWindow/2
		s.waitFor.Store(target)
		if r.slowest() >= target {
			s.waitFor.Store(-1)
			return nil
		}
		select {
		case <-s.wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// open is the server's Handler.Open.
func (r *linkRun) open(sensorID, delivered int) (ingest.Session, error) {
	s, ok := r.byID[sensorID]
	if !ok {
		return nil, fmt.Errorf("unknown sensor %d", sensorID)
	}
	now := r.clock()
	r.mu.Lock()
	r.openNs += now - s.runAt.Load()
	r.openN++
	r.mu.Unlock()
	return &linkSession{s: s, total: int(s.total.Load()), next: delivered}, nil
}

// linkSession is one connection's server-side session: it checks every
// frame against what the sensor generated.
type linkSession struct {
	s       *linkSensor
	total   int
	next    int
	reals   int
	dummies int
	wire    int // wire frames, dummies included
	minLen  int // shortest and longest wire frame
	maxLen  int
	lastEnd int64 // end of the previous Frame call while traced, else 0
	gapNs   int64
	gapN    int64
}

func (ss *linkSession) Total() int { return ss.total }

func (ss *linkSession) Frame(index int, msg []byte) error {
	r := ss.s.run
	now := r.clock()
	traced := r.tr.on.Load()
	if traced && ss.lastEnd > 0 {
		ss.gapNs += now - ss.lastEnd
		ss.gapN++
	}
	if r.o.corruptFrame > 0 && r.corrupt.Add(1) == r.o.corruptFrame {
		msg[len(msg)-1] ^= 0xFF
	}
	err := ss.frame(index, msg, now, traced)
	if traced {
		ss.lastEnd = r.clock()
	}
	return err
}

func (ss *linkSession) frame(index int, msg []byte, now int64, traced bool) error {
	s, r := ss.s, ss.s.run
	payload := msg
	if r.paced {
		if ss.wire == 0 || len(msg) < ss.minLen {
			ss.minLen = len(msg)
		}
		ss.maxLen = max(ss.maxLen, len(msg))
		ss.wire++
		if traced {
			slot := s.seekAt.Load() + int64(ss.wire)*int64(paceInterval)
			r.slotLate.add(now - slot)
		}
		p, err := r.opener.open(msg, s.id, index)
		if err != nil {
			return fmt.Errorf("open frame %d: %w", index, err)
		}
		data, dummy, err := ingest.Unmark(p)
		if err != nil {
			return fmt.Errorf("frame %d: %w", index, err)
		}
		if dummy {
			ss.dummies++
			return ingest.ErrDummyFrame
		}
		payload = data
	}
	slot := index % ringSize
	g := s.generated.Load()
	if index == ss.next && int64(index) < g && g-int64(index) <= ringSize && bytes.Equal(payload, s.ring[slot]) {
		s.verified.Add(1)
	}
	if r.paced {
		// The generation instant is virtual: the pacer's clock starts at
		// Seek and every frame takes paceGap to generate.
		gen := s.seekAt.Load() + (int64(index)-s.resume.Load()+1)*int64(paceGap)
		r.lat.add(now - gen)
	} else {
		r.lat.add(now - s.gst[slot])
	}
	ss.next = index + 1
	ss.reals++
	r.frames.Add(1)
	d := s.delivered.Add(1)
	if !r.paced {
		slowest := r.slowest()
		for _, x := range r.sensors {
			if t := x.waitFor.Load(); t >= 0 && slowest >= t && x.waitFor.CompareAndSwap(t, -1) {
				select {
				case x.wake <- struct{}{}:
				default:
				}
			}
		}
	}
	if d == s.warmAt {
		close(s.warm)
	}
	return nil
}

// Close checks the pacer's schedule: with 2 ms slots and a 3 ms gap the
// n-th real frame leaves in slot ceil(3n/2), so a connection that carried
// n real frames carried exactly ceil(n/2) dummies.
func (ss *linkSession) Close(err error) {
	r := ss.s.run
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gapNs += ss.gapNs
	r.gapN += ss.gapN
	if ss.wire > 0 {
		r.minLen = min(r.minLen, ss.minLen)
		r.maxLen = max(r.maxLen, ss.maxLen)
	}
	if r.paced && ss.dummies != (ss.reals+1)/2 {
		r.out.fail("sensor %d: %d real frames went out with %d dummies, the schedule says %d",
			ss.s.id, ss.reals, ss.dummies, (ss.reals+1)/2)
	}
}

// sampleLag samples, while the traced window is open, how far each
// projection worker's cursor trails the frames delivered.
func (r *linkRun) sampleLag() {
	defer r.sampling.Done()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-tick.C:
		}
		if r.stopping.Load() {
			return
		}
		if !r.tr.on.Load() {
			continue
		}
		cp := r.eng.Checkpoint()
		var lag [3]float64
		for i, name := range []string{"mae", "events", "privacy"} {
			for _, s := range r.sensors {
				lag[i] += float64(s.delivered.Load() - int64(cp.Workers[name].Cursors[s.id]))
			}
		}
		r.mu.Lock()
		for i := range lag {
			r.lagSum[i] += lag[i]
		}
		r.lagN++
		r.mu.Unlock()
	}
}

// stop ends the generators, completes every stream, drains the server and
// the engine, and runs the checks.
func (r *linkRun) stop(measured bool) (*outcome, error) {
	r.stopping.Store(true)
	for _, s := range r.sensors {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	r.sampling.Wait()
	waited := make(chan struct{})
	go func() {
		r.clients.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(60 * time.Second):
		r.fail("clients did not finish within 60s")
		r.cancel()
		<-waited
	}
	defer r.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.srv.Drain(ctx); err != nil {
		r.fail("server drain: %v", err)
	}
	if err := <-r.serveErr; err != nil && !errors.Is(err, ingest.ErrClosed) {
		return nil, fmt.Errorf("serve: %w", err)
	}
	t0 := time.Now()
	r.eng.Close()
	drain := time.Since(t0)
	snap := r.eng.Snapshot()

	r.mu.Lock()
	defer r.mu.Unlock()
	out := &r.out
	var delivered int64
	for _, s := range r.sensors {
		g, d, v := s.generated.Load(), s.delivered.Load(), s.verified.Load()
		out.attempted += g
		out.verified += v
		delivered += d
		if d != g || v != d {
			out.fail("sensor %d: %d frames generated, %d delivered, %d byte-exact", s.id, g, d, v)
		}
	}
	out.hellos = int64(2*len(r.sensors)) + int64(out.stats.SoftRejects)
	if snap.StagedRecords != delivered || r.stager.staged.Load() != delivered {
		out.fail("projection staged %d records (%d StageFrame calls) for %d delivered frames",
			snap.StagedRecords, r.stager.staged.Load(), delivered)
	}
	if snap.DecodeErrors != 0 {
		out.fail("projection: %d frames failed to open, unmark or decode", snap.DecodeErrors)
	}
	if snap.AssignedFrames != delivered || snap.CoveragePct != 100 {
		out.fail("projection coverage %.3f%% (%d assigned)", snap.CoveragePct, snap.AssignedFrames)
	}
	if r.paced {
		if lo, hi := r.minLen, r.maxLen; lo != hi {
			out.fail("wire frames range from %d to %d bytes; the defended link carries one length", lo, hi)
		}
		if snap.Privacy.NMI != 0 || snap.Privacy.DistinctSizes > 1 {
			out.fail("privacy monitor: size/label NMI %.6f over %d sizes, want 0", snap.Privacy.NMI, snap.Privacy.DistinctSizes)
		}
	}
	st := out.stats
	out.layers = map[string]float64{
		"projection.drain_ms":      float64(drain) / 1e6,
		"ingest.open_ms":           ratio(float64(r.openNs)/1e6, r.openN),
		"ingest.final_ack_ms":      ratio(float64(r.ackNs)/1e6, r.ackN),
		"ingest.frame_gap_us":      ratio(float64(r.gapNs)/1e3, r.gapN),
		"ingest.retries_per_kconn": 1000 * ratio(float64(st.SoftRejects+st.Reconnects+st.DialFailures+st.WriteRetries), out.hellos),
		"ingest.dummy_frac":        ratio(float64(st.DummyFrames), int64(st.FramesSent+st.DummyFrames)),
		"ingest.aoi_us":            st.MeanAoIMicros(),
	}
	if r.lagN > 0 {
		for i, name := range []string{"mae", "events", "privacy"} {
			out.layers["projection.lag_frames."+name] = r.lagSum[i] / float64(r.lagN)
		}
	}
	if r.paced {
		p50, n50 := r.slotLate.quantile(0.50, 0.5, nil)
		p99, n99 := r.slotLate.quantile(0.99, 0.5, nil)
		if measured && r.o.trace && (n50 == 0 || n99 == 0) {
			out.fail("pacer slot lateness: %d samples are too few for a p99", r.slotLate.count())
		}
		out.layers["ingest.pacer_slot_late_us.p50"] = p50 / 1e3
		out.layers["ingest.pacer_slot_late_us.p99"] = p99 / 1e3
	}
	if measured && r.o.trace {
		sends := r.tr.calls[layerEncode].Load()
		out.layers["ingest.client_send_us"] = ratio(float64(r.tr.wall.Load()*int64(len(r.sensors))-r.sendNs)/1e3, sends)
		out.notes = append(out.notes, fmt.Sprintf("projection drain %.3f ms; open_ms over %d connections, final_ack_ms over %d, %d lag samples",
			float64(drain)/1e6, r.openN, r.ackN, r.lagN))
	}
	return out, nil
}

func ratio(num float64, den int64) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}
