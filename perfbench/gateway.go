package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/metrics"
)

// The gateway workload: a 2-node cluster behind its gateway, fed by a
// stream of sensors that each upload gwFrames stamped frames in bursts of
// gwBurst, reconnecting and resuming between bursts. Two workers hold at
// most one connection each; the seeded queue decides which of gwPool
// in-flight sensors goes next and when a new sensor joins.
const (
	gwNodes  = 2
	gwConns  = 2
	gwFrames = 16 // frames per sensor; the seen-bitset is one word
	gwBurst  = 4  // frames per connection
	gwPool   = 64 // sensors in flight
	gwWarmup = 1000
	// Every gwProbeEvery-th connection of the traced window is a probe: a
	// fresh sensor dialled straight at a node, bypassing the gateway.
	gwProbeEvery = 16
	probeIDBit   = 1 << 31
)

// errBurstPause ends a connection after its burst; the sensor rejoins the
// queue and its next connection resumes where the server says it stopped.
var errBurstPause = errors.New("perfbench: burst sent; reconnect to continue")

type gatewayRun struct {
	o     *options
	tr    *tracer
	epoch time.Time
	reg   *metrics.Registry
	cl    *cluster.Cluster
	addr  string
	nodes []string
	idOff uint64

	ctx     context.Context
	cancel  context.CancelFunc
	workers sync.WaitGroup
	frames  atomic.Int64 // frames delivered through the gateway
	runs    atomic.Int64 // finished Client.Run calls
	warmAt  int64
	warm    chan struct{}
	lat     *reservoir
	connect *reservoir // Run start → Seek through the gateway, traced
	direct  *reservoir // the same for probes, traced

	smu     sync.RWMutex
	sensors map[int]*gwSensor // sensors in flight, looked up by sessions

	mu        sync.Mutex // guards the queue, out and the sums below
	rng       uint64
	pool      []*gwSensor
	admitting bool
	admitted  int
	probes    int
	jobs      int64
	out       outcome
	gwHellos  int64 // hellos through the gateway
	openNs    int64 // Run start → Handler.Open, traced
	openN     int64
	ackNs     int64 // last Frame → Run return on completing connections, traced
	ackN      int64
	runNs     int64 // Run wall time outside Next, traced
	runFrames int64
	gapNs     int64 // time between a session's Frame calls, traced
	gapN      int64
}

// gwSensor is one sensor: its client, its FrameSource state and the
// seen-bitset its sessions fill.
type gwSensor struct {
	run    *gatewayRun
	id     int
	probe  bool
	client *ingest.Client
	stamps [gwFrames]atomic.Int64 // generation instants
	runAt  atomic.Int64
	last   atomic.Int64 // end of the latest Frame call

	// Held by one worker at a time.
	pos, sent int
	nextNs    int64
	buf       [frameBytes]byte

	mu         sync.Mutex
	seen       uint64
	mismatched int
	duplicates int
}

func startGateway(o *options, tr *tracer) (instance, error) {
	r := &gatewayRun{
		o: o, tr: tr, epoch: time.Now(),
		reg:       metrics.NewRegistry(),
		sensors:   map[int]*gwSensor{},
		warm:      make(chan struct{}),
		warmAt:    int64(max(1, int(gwWarmup*o.warmup))),
		lat:       newReservoir(o.seed),
		connect:   newReservoir(o.seed + 1),
		direct:    newReservoir(o.seed + 2),
		rng:       uint64(o.seed) ^ 0x6A7E,
		admitting: true,
	}
	r.idOff = splitmix(&r.rng)
	r.connect.reset(true)
	r.direct.reset(true)
	handler := ingest.HandlerFuncs{OpenFunc: r.open}
	cl, err := cluster.New(cluster.Config{
		Nodes: gwNodes,
		NewNode: func(int) cluster.NodeSpec {
			return cluster.NodeSpec{Server: ingest.ServerConfig{Handler: handler, Metrics: r.reg}}
		},
		Metrics: r.reg,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Start("127.0.0.1:0"); err != nil {
		cl.Close()
		return nil, err
	}
	r.cl, r.addr = cl, cl.Addr().String()
	for _, n := range cl.Nodes() {
		r.nodes = append(r.nodes, n.Addr)
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for i := 0; i < gwConns; i++ {
		r.workers.Add(1)
		go r.worker()
	}
	select {
	case <-r.warm:
	case <-time.After(60 * time.Second):
		r.stop(false)
		return nil, errors.New("gateway warm-up did not finish")
	}
	return r, nil
}

func (r *gatewayRun) clock() int64        { return int64(time.Since(r.epoch)) }
func (r *gatewayRun) delivered() int64    { return r.frames.Load() }
func (r *gatewayRun) latency() *reservoir { return r.lat }

// newSensor admits the next sensor of the seeded order; ids are a
// bijection of the admission ordinal, so they never repeat in a run.
// Called with r.mu held.
func (r *gatewayRun) newSensor(probe bool) *gwSensor {
	ord := r.admitted
	if probe {
		ord = r.probes
		r.probes++
	} else {
		r.admitted++
	}
	id := int((uint64(ord)*0x9E3779B1 + r.idOff) & (probeIDBit - 1))
	addr := r.addr
	if probe {
		id |= probeIDBit
		addr = r.nodes[ord%len(r.nodes)]
	}
	s := &gwSensor{run: r, id: id, probe: probe}
	s.client = ingest.NewClient(ingest.ClientConfig{
		Addr:           addr,
		SensorID:       id,
		WriteBatch:     writeBatch,
		RejectAttempts: 64,
		Seed:           int64(mix(r.o.seed, id, -1) >> 1),
		Metrics:        r.reg,
	})
	r.smu.Lock()
	r.sensors[id] = s
	r.smu.Unlock()
	return s
}

// take hands a worker its next sensor, or nil once the run is stopping and
// every sensor in flight has completed.
func (r *gatewayRun) take() *gwSensor {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs++
	if r.admitting && r.tr.on.Load() && r.jobs%gwProbeEvery == 0 {
		return r.newSensor(true)
	}
	for r.admitting && len(r.pool) < gwPool {
		r.pool = append(r.pool, r.newSensor(false))
	}
	n := len(r.pool)
	if n == 0 {
		return nil
	}
	i := int(splitmix(&r.rng) % uint64(n))
	s := r.pool[i]
	r.pool[i] = r.pool[n-1]
	r.pool = r.pool[:n-1]
	return s
}

// worker runs one connection at a time until the queue is empty.
func (r *gatewayRun) worker() {
	defer r.workers.Done()
	for {
		s := r.take()
		if s == nil {
			return
		}
		traced := r.tr.on.Load()
		t0 := r.clock()
		s.runAt.Store(t0)
		s.nextNs = 0
		before := s.pos
		st, err := s.client.Run(r.ctx, s)
		t1 := r.clock()
		if r.runs.Add(1) == r.warmAt {
			close(r.warm)
		}
		paused := errors.Is(err, errBurstPause)
		r.mu.Lock()
		r.out.addStats(st)
		if !s.probe {
			r.gwHellos += int64(st.SoftRejects)
		}
		if traced {
			r.runNs += t1 - t0 - s.nextNs
			r.runFrames += int64(s.pos - before)
			if err == nil {
				r.ackNs += t1 - s.last.Load()
				r.ackN++
			}
		}
		switch {
		case paused:
			r.pool = append(r.pool, s)
		case err != nil:
			r.out.fail("sensor %d: %v", s.id, err)
			r.retire(s)
		default:
			r.retire(s)
		}
		r.mu.Unlock()
	}
}

// retire checks a finished sensor's bitset and forgets it, so the
// verifier's memory stays bounded by the sensors in flight. Called with
// r.mu held.
func (r *gatewayRun) retire(s *gwSensor) {
	r.smu.Lock()
	delete(r.sensors, s.id)
	r.smu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	got := bits.OnesCount64(s.seen)
	r.out.attempted += int64(s.pos)
	r.out.verified += int64(got)
	if got != s.Total() || s.mismatched > 0 || s.duplicates > 0 {
		r.out.fail("sensor %d: %d of %d frames seen, %d mismatched, %d duplicated",
			s.id, got, s.Total(), s.mismatched, s.duplicates)
	}
}

// fillFrame writes frame i of sensor id: 64 stamped bytes, a pure
// function of (seed, sensor, frame), so a resumed stream is checkable.
func fillFrame(buf []byte, seed int64, sensor, frame int) {
	x := mix(seed, sensor, frame)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], splitmix(&x))
	}
}

// Total implements ingest.FrameSource.
func (s *gwSensor) Total() int {
	if s.probe {
		return gwBurst
	}
	return gwFrames
}

// Seek implements ingest.FrameSource; it marks the hello (or resume)
// accepted, which ends the connect latency.
func (s *gwSensor) Seek(resume int) error {
	r := s.run
	if r.tr.on.Load() {
		d := r.clock() - s.runAt.Load()
		if s.probe {
			r.direct.add(d)
		} else {
			r.connect.add(d)
		}
	}
	r.mu.Lock()
	r.out.hellos++
	if !s.probe {
		r.gwHellos++
	}
	r.mu.Unlock()
	if resume != s.pos {
		return fmt.Errorf("server resumes at frame %d but %d were sent", resume, s.pos)
	}
	s.sent = 0
	return nil
}

// Next implements ingest.FrameSource: gwBurst frames per connection, then
// errBurstPause.
func (s *gwSensor) Next(ctx context.Context) ([]byte, error) {
	if s.sent >= gwBurst {
		return nil, ingest.Terminal(errBurstPause)
	}
	r := s.run
	t0 := r.tr.begin()
	fillFrame(s.buf[:], r.o.seed, s.id, s.pos)
	now := r.clock()
	s.stamps[s.pos].Store(now)
	s.pos++
	s.sent++
	if t0 >= 0 {
		s.nextNs += r.tr.now() - t0
	}
	return s.buf[:], nil
}

// open is every node's Handler.Open.
func (r *gatewayRun) open(sensorID, delivered int) (ingest.Session, error) {
	r.smu.RLock()
	s, ok := r.sensors[sensorID]
	r.smu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown sensor %d", sensorID)
	}
	if r.tr.on.Load() {
		d := r.clock() - s.runAt.Load()
		r.mu.Lock()
		r.openNs += d
		r.openN++
		r.mu.Unlock()
	}
	return &gwSession{s: s}, nil
}

// gwSession checks each delivered frame byte for byte and marks it seen.
type gwSession struct {
	s       *gwSensor
	lastEnd int64 // end of the previous Frame call while traced, else 0
	gapNs   int64
	gapN    int64
}

func (ss *gwSession) Total() int { return ss.s.Total() }

func (ss *gwSession) Frame(index int, msg []byte) error {
	s, r := ss.s, ss.s.run
	now := r.clock()
	traced := r.tr.on.Load()
	if traced && ss.lastEnd > 0 {
		ss.gapNs += now - ss.lastEnd
		ss.gapN++
	}
	if r.o.corruptFrame > 0 && r.frames.Load()+1 == r.o.corruptFrame {
		msg[len(msg)-1] ^= 0xFF
	}
	var want [frameBytes]byte
	ok := index >= 0 && index < gwFrames
	if ok {
		fillFrame(want[:], r.o.seed, s.id, index)
		ok = bytes.Equal(msg, want[:])
	}
	s.mu.Lock()
	switch {
	case !ok:
		s.mismatched++
	case s.seen&(1<<index) != 0:
		s.duplicates++
	default:
		s.seen |= 1 << index
	}
	s.mu.Unlock()
	if ok {
		r.lat.add(now - s.stamps[index].Load())
	}
	if !s.probe {
		r.frames.Add(1)
	}
	end := r.clock()
	s.last.Store(end)
	if traced {
		ss.lastEnd = end
	}
	return nil
}

func (ss *gwSession) Close(error) {
	r := ss.s.run
	r.mu.Lock()
	r.gapNs += ss.gapNs
	r.gapN += ss.gapN
	r.mu.Unlock()
}

// stop lets the sensors in flight finish, drains the cluster and reports.
func (r *gatewayRun) stop(measured bool) (*outcome, error) {
	r.mu.Lock()
	r.admitting = false
	r.mu.Unlock()
	waited := make(chan struct{})
	go func() {
		r.workers.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(60 * time.Second):
		r.cancel()
		<-waited
		r.mu.Lock()
		r.out.fail("sensors did not finish within 60s")
		r.mu.Unlock()
	}
	defer r.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := r.cl.Drain(ctx)
	snap := r.reg.Snapshot()

	r.mu.Lock()
	defer r.mu.Unlock()
	out := &r.out
	if drainErr != nil {
		out.fail("cluster drain: %v", drainErr)
	}
	r.smu.RLock()
	left := len(r.sensors)
	r.smu.RUnlock()
	if left != 0 || len(r.pool) != 0 {
		out.fail("%d sensors never completed", left)
	}
	frames := r.frames.Load()
	out.layers = map[string]float64{
		"cluster.proxy_bytes_per_frame": ratio(float64(snap.Counters["cluster.proxy_bytes"]), frames),
		"cluster.routed_per_conn":       ratio(float64(snap.Counters["cluster.routed"]), r.gwHellos),
		"ingest.retries_per_kconn": 1000 * ratio(float64(out.stats.SoftRejects+out.stats.Reconnects+
			out.stats.DialFailures+out.stats.WriteRetries), out.hellos),
		"ingest.open_ms":        ratio(float64(r.openNs)/1e6, r.openN),
		"ingest.final_ack_ms":   ratio(float64(r.ackNs)/1e6, r.ackN),
		"ingest.frame_gap_us":   ratio(float64(r.gapNs)/1e3, r.gapN),
		"ingest.client_send_us": ratio(float64(r.runNs)/1e3, r.runFrames),
		"ingest.dummy_frac":     0,
	}
	if measured && r.o.trace {
		c50, n50 := r.connect.quantile(0.50, 0.5, nil)
		c99, n99 := r.connect.quantile(0.99, 0.5, nil)
		d50, nd := r.direct.quantile(0.50, 0.5, nil)
		if n50 == 0 || n99 == 0 || nd == 0 {
			out.fail("connect latency: %d gateway and %d direct samples are too few", r.connect.count(), r.direct.count())
		}
		out.layers["ingest.connect_p50_ms"] = c50 / 1e6
		out.layers["ingest.connect_p99_ms"] = c99 / 1e6
		out.layers["cluster.connect_direct_ms"] = d50 / 1e6
		perFrame := ratio(float64(r.gwHellos), frames)
		out.notes = append(out.notes, fmt.Sprintf(
			"connect p50 %.3f ms through the gateway (%d samples) vs %.3f ms direct to a node (%d samples): the gateway hop adds %.3f ms a connection, %.1f us of wall time a frame",
			c50/1e6, r.connect.count(), d50/1e6, r.direct.count(), (c50-d50)/1e6, (c50-d50)/1e3*perFrame))
		out.notes = append(out.notes, fmt.Sprintf("%.1f proxied bytes and %.3f connections per gateway frame; final ack %.3f ms over %d streams",
			out.layers["cluster.proxy_bytes_per_frame"], perFrame, out.layers["ingest.final_ack_ms"], r.ackN))
	}
	return out, nil
}
