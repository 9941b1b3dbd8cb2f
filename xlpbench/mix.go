package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xlp/internal/corpus"
	"xlp/internal/service"
	"xlp/internal/service/store"
)

// The service mix drives an in-process xlpd (service.New with the
// daemon's flag defaults, behind service.RequestIDMiddleware) over
// loopback HTTP from mixClients closed-loop clients, each on one
// keep-alive connection.
//
// Each client sends rounds of requests in a seeded order. A round holds
// two fresh requests per class (three for mixSlowest), 45 in all: a
// corpus program with a nonce comment appended, so the cache key is new
// and the analysis runs and is written through to the store. Four
// repeats per fresh request join them, drawn uniformly from a hot set of
// mixHotSize keys that set-up primes. The hot set is larger than the
// 256-entry LRU, so repeats split between LRU hits and disk-store reads.
const (
	mixHotSize      = 400
	repeatsPerFresh = 4
	mixSetups       = 11
)

// mixClients is the number of closed-loop clients: one per CPU.
var mixClients = runtime.NumCPU()

// mixExcluded are the three slowest strictness programs; strict-corpus
// measures them, so the mix leaves them out.
//
// mixSlowest is the slowest class that remains. It gets a third fresh
// request per round, which makes it 1.3% of all requests: the p99
// latency then falls inside its latency distribution rather than on the
// edge between it and the next class, where p99 would jump between the
// two from run to run.
var mixExcluded = map[string]bool{"odprove": true, "pcprove": true, "strassen": true}

const mixSlowest = "event"

// mixClass is one fresh-request class: an analysis kind on one program.
type mixClass struct {
	name     string
	kind     service.Kind
	prog     corpus.Program
	perRound int // fresh requests of this class in one round
}

// Sample classes beyond the fresh classes.
const (
	lruHit = -1 - iota
	storeHit
	recomputed
)

func mixClasses() []mixClass {
	var cs []mixClass
	for _, p := range corpus.LogicPrograms() {
		cs = append(cs, mixClass{"groundness/" + p.Name, service.KindGroundness, p, 2})
	}
	for _, p := range corpus.FuncPrograms() {
		if !mixExcluded[p.Name] {
			n := 2
			if p.Name == mixSlowest {
				n = 3
			}
			cs = append(cs, mixClass{"strictness/" + p.Name, service.KindStrictness, p, n})
		}
	}
	for _, name := range depthKProgs {
		p, err := corpus.Get(name)
		if err != nil {
			panic(err) // depthKProgs names corpus programs
		}
		cs = append(cs, mixClass{"depthk/" + p.Name, service.KindDepthK, p, 2})
	}
	return cs
}

func (mx *mix) className(class int) string {
	switch class {
	case lruHit:
		return "repeat/lru-hit"
	case storeHit:
		return "repeat/store-hit"
	case recomputed:
		return "repeat/recomputed"
	}
	return mx.classes[class].name
}

// mixOp is one request of the mix.
type mixOp struct {
	class int // index into mix.classes
	hot   int // hot-set index of a repeat, -1 for a fresh request
	req   *service.Request
	body  []byte // HTTP body
}

// mix is one service-mix run: its inputs, its primed hot set and the
// server under test.
type mix struct {
	cfg     config
	classes []mixClass
	hot     []mixOp
	primed  []string // canonical response of each hot key, recorded when primed
	round   int      // requests per client round
	dir     string   // store directory
	phase   atomic.Int64
}

type apiBody struct {
	Source  string          `json:"source"`
	Options service.Options `json:"options"`
}

func (mx *mix) newOp(class, hot int, nonce string) mixOp {
	c := mx.classes[class]
	req := &service.Request{Kind: c.kind, Source: c.prog.Source + "\n% " + nonce + "\n"}
	if c.kind == service.KindDepthK {
		req.Options.K = depthK
	}
	body, err := json.Marshal(apiBody{req.Source, req.Options})
	if err != nil {
		panic(err) // plain strings and ints
	}
	return mixOp{class: class, hot: hot, req: req, body: body}
}

func newMix(cfg config, dir string) *mix {
	mx := &mix{cfg: cfg, classes: mixClasses(), dir: dir, primed: make([]string, mixHotSize)}
	fresh := 0
	for _, c := range mx.classes {
		fresh += c.perRound
	}
	mx.round = fresh * (1 + repeatsPerFresh)
	for i := 0; i < mixHotSize; i++ {
		mx.hot = append(mx.hot, mx.newOp(i%len(mx.classes), i, fmt.Sprintf("hot %d.%d", cfg.seed, i)))
	}
	return mx
}

// roundOps returns one client round in a seeded order.
func (mx *mix) roundOps(rng *rand.Rand, tag string) []mixOp {
	var ops []mixOp
	for ci, c := range mx.classes {
		for k := 0; k < c.perRound; k++ {
			ops = append(ops, mx.newOp(ci, -1, fmt.Sprintf("fresh %d.%s.%d.%d", mx.cfg.seed, tag, ci, k)))
		}
	}
	for n := len(ops) * repeatsPerFresh; n > 0; n-- {
		ops = append(ops, mx.hot[rng.Intn(len(mx.hot))])
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// canonical renders a response without its delivery flags.
func canonical(resp *service.Response) string {
	c := *resp
	c.Cached, c.Stored, c.Deduped = false, false, false
	b, err := json.Marshal(&c)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// check verifies one response: against the reference results, and for
// a repeat of a primed key also against the response recorded when it
// was primed.
func (mx *mix) check(op mixOp, resp *service.Response) error {
	c := mx.classes[op.class]
	if err := mx.cfg.refs.checkResponse(c.kind, c.prog.Name, resp); err != nil {
		return err
	}
	if op.hot >= 0 && mx.primed[op.hot] != "" && canonical(resp) != mx.primed[op.hot] {
		return fmt.Errorf("%s: repeat of hot key %d differs from its primed response", c.name, op.hot)
	}
	return nil
}

// serviceConfig is xlpd's flag defaults, with JSON info logs discarded.
func serviceConfig(storeDir string) service.Config {
	return service.Config{
		QueueSize:      128,
		CacheSize:      256,
		DefaultTimeout: 30 * time.Second,
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		StoreDir:       storeDir,
	}
}

// prime computes every hot key through a service writing to the store,
// checks each against the references and records its response.
func (mx *mix) prime() {
	svc := service.New(serviceConfig(mx.dir))
	defer svc.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < mixClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(mx.hot) {
					return
				}
				op := mx.hot[i]
				resp, err := svc.Do(context.Background(), op.req)
				if err == nil {
					err = mx.check(op, resp)
				}
				if mx.cfg.tally.record(err) {
					mx.primed[i] = canonical(resp)
				}
			}
		}()
	}
	wg.Wait()
}

// server is the service under test listening on loopback.
type server struct {
	svc  *service.Service
	http *http.Server
	url  string
	done chan error
}

// startServer opens the service on the primed store, starts the
// listener and waits until GET /v1/stats answers 200.
func startServer(storeDir string) (*server, error) {
	svc := service.New(serviceConfig(storeDir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc:  svc,
		http: &http.Server{Handler: service.RequestIDMiddleware(svc.Handler()), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(s.url + "/v1/stats")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.http.Shutdown(ctx) //nolint:errcheck // the listener is ours; Serve's result is awaited below
	<-s.done
	s.svc.Shutdown(ctx) //nolint:errcheck // a drain timeout leaves nothing to recover
}

// timed is a raw duration measured during slice slice of a phase.
type timed struct {
	d     time.Duration
	slice int
}

// sample is one completed request.
type sample struct {
	class int // fresh class index, or lruHit, storeHit, recomputed
	lat   timed
	ms    float64 // normalized latency, set when the phase ends
}

// phaseResult is what one timed phase of the mix measured. Times are
// normalized when the phase ends: a slice's durations by the mean of the
// calibrations before and after it (see calib.go).
type phaseResult struct {
	samples    []sample
	rounds     []float64   // summed latency of each complete client round, ms
	elapsed    float64     // ms
	alloc      uint64      // bytes allocated while the clients ran
	tableBytes map[int]int // Response.TableBytes of each fresh class
	queue      []float64   // miss latency minus the response's own Timings, ms (in-process phases)
}

// execFunc sends one request and returns its latency and the response:
// decoded, or as the HTTP body to decode after the slice.
type execFunc func(client int, op mixOp) (resp *service.Response, body []byte, lat time.Duration, err error)

// mixSlice is how long the clients run between two calibrations, and
// mixCalFor how long each calibration keeps every CPU busy.
const (
	mixSlice  = time.Second
	mixCalFor = 50 * time.Millisecond
)

// reply is one request's outcome, kept until its slice ends and checked
// then.
type reply struct {
	op   mixOp
	lat  timed
	resp *service.Response // nil until body is decoded
	body []byte
	err  error
}

// client is one closed-loop client's position in its request sequence
// and what it measured, in raw durations.
type client struct {
	id      int
	tag     string // phase and client, for fresh nonces
	rng     *rand.Rand
	ops     []mixOp // current round
	pos     int
	round   int     // complete rounds
	busy    []timed // latencies of the current round so far
	pending []reply // replies of the current slice, not yet checked
	samples []sample
	rounds  [][]timed
	queue   []timed
	table   map[int]int
}

// run drives the clients in slices of mixSlice, each after a
// calibration on every CPU, until d has passed and every client has
// completed minRounds rounds. The replies of a slice are decoded and
// checked after it, outside its time and its allocation count. With rec
// set, each request is one trace.
func (mx *mix) run(d time.Duration, minRounds int, exec execFunc, rec *recorder, spanName string) phaseResult {
	phase := mx.phase.Add(1)
	cs := make([]*client, mixClients)
	for i := range cs {
		cs[i] = &client{id: i, tag: fmt.Sprintf("%d.%d", phase, i),
			rng:   rand.New(rand.NewSource(mx.cfg.seed*1_000_003 + phase*101 + int64(i))),
			table: map[int]int{}}
	}
	out := phaseResult{tableBytes: map[int]int{}}
	var cals []time.Duration // before each slice, and after the last
	var slices []time.Duration
	calibrate := func() {
		c := mx.cfg.cals.calibrateFor(mixClients, mixCalFor)
		cals = append(cals, c)
	}
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(d)
	for {
		done := !time.Now().Before(deadline)
		for _, c := range cs {
			done = done && c.round >= minRounds
		}
		if done {
			break
		}
		calibrate()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		end := t0.Add(mixSlice)
		var wg sync.WaitGroup
		for _, c := range cs {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				mx.drive(c, len(slices), end, exec, rec, spanName)
			}(c)
		}
		wg.Wait()
		slices = append(slices, time.Since(t0))
		runtime.ReadMemStats(&m1)
		out.alloc += m1.TotalAlloc - m0.TotalAlloc
		for _, c := range cs {
			mx.settle(c)
		}
	}
	calibrate()
	norm := func(t timed) float64 { return normMs(t.d, (cals[t.slice]+cals[t.slice+1])/2) }
	for k, d := range slices {
		out.elapsed += norm(timed{d, k})
	}
	for _, c := range cs {
		for _, s := range c.samples {
			s.ms = norm(s.lat)
			out.samples = append(out.samples, s)
		}
		for _, r := range c.rounds {
			sum := 0.0
			for _, t := range r {
				sum += norm(t)
			}
			out.rounds = append(out.rounds, sum)
		}
		for _, q := range c.queue {
			out.queue = append(out.queue, norm(q))
		}
		for k, v := range c.table {
			out.tableBytes[k] = v
		}
	}
	return out
}

// drive sends c's requests until end, during slice slice. In a traced
// in-process phase it also encodes each response and records the miss
// queueing time, both under the request's trace.
func (mx *mix) drive(c *client, slice int, end time.Time, exec execFunc, rec *recorder, spanName string) {
	for time.Now().Before(end) {
		if c.pos == len(c.ops) {
			c.ops, c.pos = mx.roundOps(c.rng, fmt.Sprintf("%s.%d", c.tag, c.round)), 0
		}
		op := c.ops[c.pos]
		c.pos++
		name := mx.classes[op.class].name
		trace := rec.newTrace()
		id := rec.open(trace, 0, spanName, name)
		resp, body, lat, err := exec(c.id, op)
		rec.close(id)
		c.busy = append(c.busy, timed{lat, slice})
		if c.pos == len(c.ops) {
			c.rounds = append(c.rounds, c.busy)
			c.busy = nil
			c.round++
		}
		if rec != nil && resp != nil && err == nil {
			e := rec.open(trace, id, "json.encode", name)
			_, err = json.Marshal(resp)
			rec.close(e)
			if !resp.Cached && !resp.Deduped {
				c.queue = append(c.queue, timed{lat - time.Duration(resp.Timings.TotalUs)*time.Microsecond, slice})
			}
		}
		c.pending = append(c.pending, reply{op: op, lat: timed{lat, slice}, resp: resp, body: body, err: err})
	}
}

// settle decodes and checks c's pending replies, counts each as an
// operation and keeps the latencies of the correct ones, classed.
func (mx *mix) settle(c *client) {
	for _, r := range c.pending {
		resp, err := r.resp, r.err
		if err == nil && resp == nil {
			resp = new(service.Response)
			err = json.Unmarshal(r.body, resp)
		}
		if err == nil {
			err = mx.check(r.op, resp)
		}
		if !mx.cfg.tally.record(err) {
			continue
		}
		cls := r.op.class
		switch {
		case r.op.hot < 0:
			c.table[cls] = resp.TableBytes
		case !resp.Cached:
			cls = recomputed
		case resp.Stored:
			cls = storeHit
		default:
			cls = lruHit
		}
		c.samples = append(c.samples, sample{class: cls, lat: r.lat})
	}
	c.pending = c.pending[:0]
}

// httpExec sends requests over one keep-alive connection per client.
func (mx *mix) httpExec(url string) (execFunc, func()) {
	clients := make([]*http.Client, mixClients)
	trs := make([]*http.Transport, mixClients)
	for i := range clients {
		trs[i] = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		clients[i] = &http.Client{Transport: trs[i]}
	}
	exec := func(client int, op mixOp) (*service.Response, []byte, time.Duration, error) {
		t0 := time.Now()
		resp, err := clients[client].Post(url+"/v1/analyze/"+string(op.req.Kind), "application/json", bytes.NewReader(op.body))
		if err != nil {
			return nil, nil, 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(t0)
		if err != nil {
			return nil, nil, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, nil, 0, fmt.Errorf("%s: status %d: %s", mx.classes[op.class].name, resp.StatusCode, bytes.TrimSpace(body))
		}
		return nil, body, lat, nil
	}
	closeAll := func() {
		for _, tr := range trs {
			tr.CloseIdleConnections()
		}
	}
	return exec, closeAll
}

// doExec calls Service.Do in process.
func doExec(svc *service.Service) execFunc {
	return func(_ int, op mixOp) (*service.Response, []byte, time.Duration, error) {
		t0 := time.Now()
		resp, err := svc.Do(context.Background(), op.req)
		return resp, nil, time.Since(t0), err
	}
}

// setUp primes the hot set and starts the server reps times (keeping
// the last), returning the median start-up time in seconds.
func (mx *mix) setUp(reps int) (*server, float64, error) {
	t0 := time.Now()
	mx.prime()
	mx.cfg.logf("service-mix: primed %d hot keys in %.2fs", len(mx.hot), time.Since(t0).Seconds())
	var times []float64
	var srv *server
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.stop()
		}
		cal := mx.cfg.cals.calibrate(1, true)
		t := time.Now()
		var err error
		if srv, err = startServer(mx.dir); err != nil {
			return nil, 0, err
		}
		times = append(times, normMs(time.Since(t), cal)/1e3)
	}
	return srv, median(times), nil
}

// classQuantiles returns the progQuantile of the latencies of each class
// that has samples, keyed by class.
func classQuantiles(samples []sample) map[int]float64 {
	by := map[int][]float64{}
	for _, s := range samples {
		by[s.class] = append(by[s.class], s.ms)
	}
	out := map[int]float64{}
	for cls, xs := range by {
		out[cls] = quantile(xs, progQuantile)
	}
	return out
}

// runMix is the untraced service-mix workload: set-up, one warm-up round
// per client, then the clients over HTTP for the run's seconds.
// geomean_ms is the geometric mean over request classes (each fresh
// class, LRU hits and store hits) of the class's lower-quartile latency.
func runMix(cfg config) (metrics, error) {
	mx := newMix(cfg, filepath.Join(cfg.workDir, "store"))
	srv, setup, err := mx.setUp(mixSetups)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	exec, closeConns := mx.httpExec(srv.url)
	defer closeConns()
	mx.run(0, 1, exec, nil, "")
	pr := mx.run(cfg.seconds, 1, exec, nil, "")

	var lats []float64
	counts := map[int]int{}
	for _, s := range pr.samples {
		lats = append(lats, s.ms)
		counts[s.class]++
	}
	cq := classQuantiles(pr.samples)
	var qs []float64
	for ci := storeHit; ci < len(mx.classes); ci++ {
		qs = append(qs, cq[ci])
		cfg.logf("service-mix: class %-22s %5d requests, lower quartile %8.3f ms", mx.className(ci), counts[ci], cq[ci])
	}
	if counts[recomputed] > 0 {
		cfg.logf("service-mix: %d repeats were recomputed", counts[recomputed])
	}
	rounds := float64(len(pr.samples)) / float64(mx.round)
	table := 0.0
	for ci, c := range mx.classes {
		table += float64(c.perRound * pr.tableBytes[ci])
	}
	cfg.logf("service-mix: %d clients, %d requests (%.1f rounds of %d; latency percentile supported: %s), %d complete rounds",
		mixClients, len(pr.samples), rounds, mx.round, supportedPercentile(len(pr.samples)), len(pr.rounds))
	m := metrics{}
	m.set("setup_s", setup, "s")
	m.set("sweep_ms", median(pr.rounds), "ms")
	m.set("geomean_ms", geomean(qs), "ms")
	m.set("alloc_mb", float64(pr.alloc)/1e6/rounds, "MB")
	m.set("table_mb", table/1e6, "MB")
	m.set("req_per_s", float64(len(pr.samples))/(pr.elapsed/1e3), "1/s")
	m.set("latency_ms_p50", quantile(lats, 0.5), "ms")
	m.set("latency_ms_p99", quantile(lats, 0.99), "ms")
	return m, nil
}

// mixLayers are the service mix's per-layer metrics.
type mixLayers struct {
	m           metrics
	overheadPct float64 // traced over untraced time per request, percent
}

// traceMix measures the service layers: an untraced HTTP phase (when
// controlFor > 0, for the tracing overhead), a traced HTTP phase, an
// in-process Service.Do phase, and store.Put of the run's payloads.
func traceMix(cfg config, rec *recorder, controlFor, tracedFor, doFor time.Duration, minRounds int) (mixLayers, error) {
	mx := newMix(cfg, filepath.Join(cfg.workDir, "store"))
	srv, _, err := mx.setUp(1)
	if err != nil {
		return mixLayers{}, err
	}
	defer srv.stop()
	exec, closeConns := mx.httpExec(srv.url)
	defer closeConns()
	mx.run(0, 1, exec, nil, "") // warm-up

	ml := mixLayers{m: metrics{}}
	st0 := srv.svc.Stats()
	var control phaseResult
	if controlFor > 0 {
		control = mx.run(controlFor, minRounds, exec, nil, "")
	}
	traced := mx.run(tracedFor, minRounds, exec, rec, "http.roundtrip")
	st1 := srv.svc.Stats()
	if controlFor > 0 {
		perReq := func(p phaseResult) float64 { return p.elapsed / float64(len(p.samples)) }
		ml.overheadPct = (perReq(traced)/perReq(control) - 1) * 100
	}
	inproc := mx.run(doFor, minRounds, doExec(srv.svc), rec, "service.request")

	classMedian := func(p phaseResult, class int) float64 {
		var xs []float64
		for _, s := range p.samples {
			if s.class == class {
				xs = append(xs, s.ms)
			}
		}
		return median(xs)
	}
	var misses []float64
	for _, s := range inproc.samples {
		if s.class >= 0 {
			misses = append(misses, s.ms)
		}
	}
	m := ml.m
	m.set("service.lru_hit_ms_p50", classMedian(inproc, lruHit), "ms")
	m.set("store.hit_ms_p50", classMedian(inproc, storeHit), "ms")
	m.set("service.miss_ms_p50", median(misses), "ms")
	m.set("service.queue_ms_p99", quantile(inproc.queue, 0.99), "ms")
	m.set("service.encode_ms_p50", cfg.cals.norm(median(spanDurations(rec.snapshot(), "json.encode"))), "ms")
	m.set("http.overhead_ms_p50", classMedian(traced, lruHit)-classMedian(inproc, lruHit), "ms")

	if st0.Store == nil || st1.Store == nil {
		return mixLayers{}, fmt.Errorf("service-mix: the service runs without its store (%s)", mx.dir)
	}
	requests := float64(st1.Requests - st0.Requests)
	storeHits, storeMisses := float64(st1.Store.Hits-st0.Store.Hits), float64(st1.Store.Misses-st0.Store.Misses)
	m.set("service.lru_hit_ratio", (float64(st1.Hits-st0.Hits)-storeHits)/requests, "ratio")
	m.set("store.hit_ratio", storeHits/(storeHits+storeMisses), "ratio")
	m.set("service.executed", float64(st1.Executed-st0.Executed), "count")

	// store.Put of the run's payloads into a scratch store.
	scratch, err := store.Open(filepath.Join(cfg.workDir, "scratch-store"), 0)
	if err != nil {
		return mixLayers{}, err
	}
	trace := rec.newTrace()
	root := rec.open(trace, 0, "store.put-all", "")
	for i, op := range mx.hot {
		id := rec.open(trace, root, "store.put", mx.classes[op.class].name)
		err := scratch.Put(op.req.CacheKey(), []byte(mx.primed[i]))
		rec.close(id)
		cfg.tally.record(err)
	}
	rec.close(root)
	m.set("store.put_ms_p50", cfg.cals.norm(median(spanDurations(rec.snapshot(), "store.put"))), "ms")
	return ml, nil
}
