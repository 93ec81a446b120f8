package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"gcbench"
	"gcbench/internal/ensemble" // ImproveSpreadExchange is not on the facade
)

// serve-mixed: the committed standard corpus served single-store over
// loopback HTTP with jobs enabled, driven by one open-loop schedule at a
// fixed offered rate. A light stream of reads and spread designs, in
// the proportions of the repository's own traffic profile
// (gcbench.ServeLoadMix), arrives at a fixed interval; a coverage
// design, a beam design and two hot publishes (a tiny campaign job
// appended to the live corpus) arrive once per heavy slot. perfbench/
// METRICS.md records the measurements that set the rates.
const (
	lightInterval = 10 * time.Millisecond   // 100 light requests/s
	heavySlot     = 7500 * time.Millisecond // one coverage, one beam and two publishes each
	maxConns      = 2                       // client connections to the server
	publishBatch  = 4                       // runs per hot publish
	pollInterval  = 5 * time.Millisecond    // readiness polling during set-up
	lagLimit      = 100 * time.Millisecond  // loadgen p99 lateness that invalidates a run
	sampleSeed    = 0x5eed                  // the server's default coverage sample seed
)

// lightCycle is one round of the light stream: the operation weights of
// gcbench.ServeLoadMix — of every 11 requests, 5 predict, 2 runs, 2
// behavior, 1 design and 1 best — interleaved so each kind is spread
// over the round. Its design is a cache-missing spread design, where
// ServeLoadMix repeats one body that the server's result cache answers
// after the first time.
var lightCycle = []string{"predict", "runs", "behavior", "predict", "best", "predict", "design", "predict", "runs", "behavior", "predict"}

// graph-varying algorithms: the design pool of the paper's §5.2.
var varyingAlgs = []string{"CC", "KC", "TC", "SSSP", "PR", "AD", "KM", "ALS", "NMF", "SGD", "SVD"}

// request is one catalog request with the inputs of its direct call.
type request struct {
	kind   string // read, design, coverage, beam
	sub    string // read: predict|runs|behavior|best; design: greedy|exchange|anneal
	method string
	path   string
	body   string

	n      int
	seed   uint64
	pool   []string // design pool restriction (nil: full pool)
	pq     gcbench.PredictQuery
	key    string
	filter gcbench.CorpusFilter
}

func (r *request) id() string { return r.method + " " + r.path + " " + r.body }

type poolBody struct {
	Algorithms []string `json:"algorithms"`
}

type designBody struct {
	N      int       `json:"n"`
	Metric string    `json:"metric,omitempty"`
	Method string    `json:"method"`
	Seed   uint64    `json:"seed,omitempty"`
	Pool   *poolBody `json:"pool,omitempty"`
}

func designRequest(kind, metric, method string, n int, seed uint64, pool []string) *request {
	b := designBody{N: n, Metric: metric, Method: method, Seed: seed}
	if pool != nil {
		b.Pool = &poolBody{Algorithms: pool}
	}
	body, _ := json.Marshal(b) // a struct of strings and ints always marshals
	return &request{kind: kind, sub: method, method: http.MethodPost, path: "/api/ensemble/design", body: string(body), n: n, seed: seed, pool: pool}
}

// catalog is the fixed, seed-independent set of requests the schedule
// draws from; every entry has a reference digest.
type catalog struct {
	reads    map[string][]*request
	designs  map[string][]*request
	coverage []*request
	beam     []*request
	all      []*request
}

// poolVariants is the full pool plus each leave-one-algorithm-out pool.
func poolVariants() [][]string {
	out := [][]string{nil}
	for i := range varyingAlgs {
		var p []string
		for j, a := range varyingAlgs {
			if j != i {
				p = append(p, a)
			}
		}
		sort.Strings(p)
		out = append(out, p)
	}
	return out
}

func buildCatalog(snap *gcbench.CorpusSnapshot, tiny bool) *catalog {
	c := &catalog{reads: map[string][]*request{}, designs: map[string][]*request{}}
	add := func(r *request) {
		c.all = append(c.all, r)
		switch r.kind {
		case "read":
			c.reads[r.sub] = append(c.reads[r.sub], r)
		case "design":
			c.designs[r.sub] = append(c.designs[r.sub], r)
		case "beam":
			c.beam = append(c.beam, r)
		}
	}
	for _, a := range varyingAlgs {
		for _, edges := range []int64{2000, 5000, 20000, 50000, 200000, 500000} {
			for _, alpha := range []float64{2.1, 2.4, 2.6, 2.9} {
				add(&request{kind: "read", sub: "predict", method: http.MethodGet,
					path: fmt.Sprintf("/api/predict?algorithm=%s&edges=%d&alpha=%g", a, edges, alpha),
					pq:   gcbench.PredictQuery{Algorithm: a, NumEdges: edges, Alpha: alpha}})
			}
		}
	}
	for i := range snap.Records {
		key := snap.Records[i].Key
		add(&request{kind: "read", sub: "behavior", method: http.MethodGet, path: "/api/behavior/" + url.PathEscape(key), key: key})
	}
	for _, a := range varyingAlgs {
		for _, size := range []string{"1e3", "1e4", "1e5", "1e6"} {
			add(&request{kind: "read", sub: "runs", method: http.MethodGet, path: "/api/runs?algorithm=" + a + "&size=" + size,
				filter: gcbench.CorpusFilter{Algorithms: []string{a}, Sizes: []string{size}}})
		}
	}
	for n := 3; n <= 12; n++ {
		add(&request{kind: "read", sub: "best", method: http.MethodGet, path: fmt.Sprintf("/api/ensemble/best?n=%d", n), n: n})
	}
	for _, pool := range poolVariants() {
		for n := 2; n <= 16; n++ {
			if pool != nil {
				// A full-pool greedy design shares its cache key with
				// /api/ensemble/best of the same n.
				add(designRequest("design", "", "greedy", n, 0, pool))
			}
			add(designRequest("design", "", "exchange", n, 0, pool))
		}
	}
	for n := 2; n <= 12; n++ {
		for seed := uint64(1); seed <= 16; seed++ {
			add(designRequest("design", "", "anneal", n, seed, nil))
		}
	}
	// Coverage designs of size 2 over every leave-one-out pool (all the
	// same pool size, so the same cost), and the self-test's smaller
	// one-algorithm pools. Both are in the reference; a run draws from
	// one set.
	var full, small []*request
	for _, pool := range poolVariants()[1:] {
		full = append(full, designRequest("coverage", "coverage", "greedy", 2, 0, pool))
	}
	for _, a := range varyingAlgs {
		small = append(small, designRequest("coverage", "coverage", "greedy", 2, 0, []string{a}))
	}
	c.all = append(append(c.all, full...), small...)
	c.coverage = full
	if tiny {
		c.coverage = small
	}
	for _, pool := range poolVariants()[1:] {
		add(designRequest("beam", "", "beam", 6, 0, pool))
	}
	return c
}

// event is one scheduled request; a nil req is a hot publish.
type event struct {
	at  time.Duration
	req *request
}

// buildSchedule lays out the open-loop schedule for d seconds. Every
// run sends the same kinds and sizes of request in the same order; the
// traffic seed picks the read targets, design pools and anneal seeds,
// which cost the same within a kind. Light designs do not repeat within
// a schedule of up to 29 s (--seconds 38): each of the 24 method and
// size pairs has at least 11 variants. So they miss the server's result
// cache, which serve.cache_hit_frac confirms.
func buildSchedule(c *catalog, seed uint64, d time.Duration) []event {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	// Light design k: method k%3 at size 4 + (k/3)%8; each (method,
	// size) pair walks a seeded permutation of its variants.
	variants := map[string][]*request{}
	for _, m := range []string{"greedy", "exchange", "anneal"} {
		for _, r := range c.designs[m] {
			if r.n >= 4 && r.n < 12 && (m == "anneal" || r.pool != nil) {
				k := fmt.Sprintf("%s/%d", m, r.n)
				variants[k] = append(variants[k], r)
			}
		}
	}
	perms := map[string][]int{}
	used := map[string]int{}
	var evs []event
	k := 0
	for i, t := 0, time.Duration(0); t < d; i, t = i+1, t+lightInterval {
		kind := lightCycle[i%len(lightCycle)]
		if kind != "design" {
			list := c.reads[kind]
			evs = append(evs, event{t, list[rng.IntN(len(list))]})
			continue
		}
		key := fmt.Sprintf("%s/%d", []string{"greedy", "exchange", "anneal"}[k%3], 4+(k/3)%8)
		list := variants[key]
		if perms[key] == nil {
			perms[key] = rng.Perm(len(list))
		}
		evs = append(evs, event{t, list[perms[key][used[key]%len(list)]]})
		used[key]++
		k++
	}
	// A slot's coverage and beam designs come before its publishes and
	// finish before the first of them, so the first slot's responses are
	// checked against the reference.
	covPerm := rng.Perm(len(c.coverage))
	beamPerm := rng.Perm(len(c.beam))
	slots := max(1, int((d+heavySlot/2)/heavySlot))
	p := d / time.Duration(slots)
	for k := 0; k < slots; k++ {
		base := time.Duration(k) * p
		evs = append(evs,
			event{base + p/50, c.coverage[covPerm[k%len(covPerm)]]},
			event{base + p*2/5, c.beam[beamPerm[k%len(beamPerm)]]},
			event{base + p*3/5, nil},
			event{base + p*4/5, nil})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// server is one running serve-mixed deployment.
type server struct {
	api  *gcbench.APIServer
	jobs *gcbench.JobManager
	snap *gcbench.CorpusSnapshot
	base string
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.api.Shutdown(ctx) // the pass is over; a slow drain only delays exit
	_ = s.jobs.Close(ctx)
}

// startServer is serve-mixed's set-up: corpus load, server construction
// with jobs enabled, coverage-estimator warm-up and readiness.
func startServer(ctx context.Context, e *env, client *http.Client, tr *tracer) (*server, error) {
	root := tr.begin(0, "serve", "setup", "")
	defer tr.end(root)
	sp := tr.begin(root, "corpus", "load", "")
	snap, err := gcbench.LoadCorpusSnapshot(filepath.Join(e.root, "runs-standard.json"))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(root, "serve", "construct", "")
	reg := gcbench.NewMetricsRegistry()
	mgr := gcbench.NewJobManager(gcbench.JobManagerConfig{Registry: reg})
	api, err := gcbench.NewAPIServer(gcbench.APIServerConfig{Store: gcbench.NewCorpusStore(snap), Jobs: mgr, Registry: reg})
	if err == nil {
		err = api.Start("127.0.0.1:0")
	}
	tr.end(sp)
	if err != nil {
		_ = mgr.Close(ctx)
		return nil, err
	}
	s := &server{api: api, jobs: mgr, snap: snap, base: api.URL()}
	// The first coverage request builds the server's Monte-Carlo sample
	// pool; the pool restriction keeps it out of the catalog.
	sp = tr.begin(root, "ensemble", "warmup", "")
	warm := designRequest("warmup", "coverage", "greedy", 1, 0, []string{"PR", "SSSP"})
	status, _, _, err := send(ctx, client, s.base, warm.method, warm.path, warm.body)
	tr.end(sp)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("warm-up design: status %d", status)
	}
	for tries := 0; err == nil; tries++ {
		status, _, _, err = send(ctx, client, s.base, http.MethodGet, "/readyz", "")
		if err == nil && status == http.StatusOK {
			break
		}
		if tries == 1000 {
			err = fmt.Errorf("/readyz still %d", status)
		}
		time.Sleep(pollInterval)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("server set-up: %w", err)
	}
	return s, nil
}

// send makes one request and reads the whole response.
func send(ctx context.Context, client *http.Client, base, method, path, body string) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != "" {
		rd = bytes.NewBufferString(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}

// sample is the outcome of one scheduled event.
type sample struct {
	ev      event
	lag     time.Duration // how late the generator sent it
	lat     time.Duration // from the scheduled send time to the full response
	sent    time.Duration // actual send offset
	done    time.Duration // completion offset
	status  int
	digest  string
	cache   string
	err     error
	records int // publish: record count once visible
}

// loadgen drives one open-loop schedule against a server.
type loadgen struct {
	client *http.Client
	srv    *server
	tr     *tracer
	pubMu  sync.Mutex
}

func (g *loadgen) run(ctx context.Context, evs []event) []sample {
	out := make([]sample, len(evs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, ev := range evs {
		if wait := time.Until(start.Add(ev.at)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		sent := time.Since(start)
		wg.Add(1)
		go func(i int, ev event, sent time.Duration) {
			defer wg.Done()
			s := sample{ev: ev, sent: sent, lag: sent - ev.at}
			if ev.req == nil {
				g.publish(ctx, &s, i)
			} else {
				sp := g.tr.begin(0, "serve", ev.req.kind+"/"+ev.req.sub, strconv.Itoa(i))
				var body []byte
				var hdr http.Header
				s.status, body, hdr, s.err = send(ctx, g.client, g.srv.base, ev.req.method, ev.req.path, ev.req.body)
				g.tr.end(sp)
				s.digest = bodyDigest(s.status, body)
				if hdr != nil {
					s.cache = hdr.Get("X-Cache")
				}
			}
			s.done = time.Since(start)
			s.lat = s.done - ev.at
			out[i] = s
		}(i, ev, sent)
	}
	wg.Wait()
	return out
}

// publish submits a tiny campaign job, follows the job's event stream
// until its runs are published, and reads the grown record count from
// /api/corpus.
func (g *loadgen) publish(ctx context.Context, s *sample, i int) {
	g.pubMu.Lock()
	defer g.pubMu.Unlock()
	sp := g.tr.begin(0, "serve", "publish", strconv.Itoa(i))
	defer g.tr.end(sp)
	// Every publish is the same campaign, so every one costs the same.
	const body = `{"profile":"standard","algorithms":["CC","KC","SSSP","PR"],"sizes":["1e5"],"alphas":[2.5],"parallel":1,"workers":1,"label":"perfbench publish"}`
	var b []byte
	s.status, b, _, s.err = send(ctx, g.client, g.srv.base, http.MethodPost, "/api/campaigns", body)
	if s.err != nil || s.status != http.StatusAccepted {
		return
	}
	var sub struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	if s.err = json.Unmarshal(b, &sub); s.err != nil {
		return
	}
	if s.err = waitPublished(ctx, g.client, g.srv.base, sub.Job.ID); s.err != nil {
		return
	}
	var status int
	status, b, _, s.err = send(ctx, g.client, g.srv.base, http.MethodGet, "/api/corpus", "")
	if s.err == nil && status != http.StatusOK {
		s.err = fmt.Errorf("/api/corpus: status %d", status)
	}
	if s.err != nil {
		return
	}
	var info struct {
		Records int `json:"records"`
	}
	if s.err = json.Unmarshal(b, &info); s.err == nil {
		s.records = info.Records
	}
}

// waitPublished reads a job's event stream until its runs are published
// to the live corpus.
func waitPublished(ctx context.Context, client *http.Client, base, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("job %s events: %w", id, err)
		}
		switch {
		case ev.Type == "published":
			return nil
		case ev.Type == "state" && (ev.State == "ok" || ev.State == "failed" || ev.State == "cancelled"):
			return fmt.Errorf("job %s ended %s without publishing: %s", id, ev.State, ev.Error)
		}
	}
}

// runServeMixed measures one serve-mixed pass.
func runServeMixed(ctx context.Context, e *env, pc passConfig) (*passResult, error) {
	p := newPassResult()
	p.parallel, p.workers = 1, 1 // the hot-publish campaigns
	ref, err := loadReference(e, "serve-mixed", 0)
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 120 * time.Second}

	setups := pc.setups
	if e.tiny || e.record {
		setups = 1
	}
	var srv *server
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.close()
			// Collect the closed server's sample pool now, so the peak
			// RSS does not depend on when the collector would have run.
			runtime.GC()
		}
		t0 := time.Now()
		srv, err = startServer(ctx, e, client, pc.tr)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		transport.CloseIdleConnections()
	}
	defer srv.close()
	p.set("setup_s", median(setupTimes), len(setupTimes))

	cat := buildCatalog(srv.snap, e.tiny)
	if e.record {
		return p, recordServe(ctx, e, client, srv, cat, ref)
	}

	d := pc.budget * 3 / 4
	if e.tiny {
		d = 3 * time.Second
	}
	evs := buildSchedule(cat, e.seed, d)
	g := &loadgen{client: client, srv: srv, tr: pc.tr}
	samples := g.run(ctx, evs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.set("peak_rss_mb", pc.peakRSS(), 1)

	// Responses completed before the first publish was sent come from
	// the committed corpus and must match their reference digests.
	firstPub := time.Duration(1<<63 - 1)
	for _, s := range samples {
		if s.ev.req == nil && s.sent < firstPub {
			firstPub = s.sent
		}
	}
	var reads, designs, coverage, publishes, lags []float64
	hits, shed, lightDesigns := 0, 0, 0
	for _, s := range samples {
		p.attempted++
		lags = append(lags, s.lag.Seconds()*1e3)
		ok := s.err == nil && (s.status == http.StatusOK || (s.ev.req == nil && s.status == http.StatusAccepted))
		if !ok {
			p.failed++
			if s.status == http.StatusTooManyRequests {
				shed++
			}
			if s.err == nil && s.status < 500 && s.status != http.StatusTooManyRequests {
				p.mismatchf("%s: status %d", describe(s.ev), s.status)
			}
			continue
		}
		if s.ev.req == nil {
			if s.records == 0 {
				p.mismatchf("publish: corpus did not grow")
			}
			publishes = append(publishes, s.lat.Seconds())
			continue
		}
		if s.done < firstPub {
			ref.check(p, s.ev.req.kind, s.ev.req.id(), s.digest)
		}
		switch s.ev.req.kind {
		case "read":
			reads = append(reads, s.lat.Seconds()*1e3)
		case "design":
			designs = append(designs, s.lat.Seconds()*1e3)
			lightDesigns++
			if s.cache == "hit" {
				hits++
			}
		case "coverage":
			coverage = append(coverage, s.lat.Seconds())
		}
	}
	if err := checkPublishes(samples, len(srv.snap.Records)); err != nil {
		p.mismatchf("%v", err)
	}
	lag99 := quantile(lags, 0.99)
	if lag99 > float64(lagLimit)/1e6 {
		p.invalid = fmt.Sprintf("load generator ran %.1f ms late at p99 (limit %v): the schedule slipped", lag99, lagLimit)
	}
	p.set("campaign_s", median(publishes), len(publishes))
	p.set("op_p50_ms", quantile(reads, 0.50), len(reads))
	p.set("read_p50_ms", quantile(reads, 0.50), len(reads))
	p.set("read_p99_ms", quantile(reads, 0.99), len(reads))
	p.set("design_p50_ms", quantile(designs, 0.50), len(designs))
	p.set("design_p90_ms", quantile(designs, 0.90), len(designs))
	p.set("coverage_p50_s", median(coverage), len(coverage))
	p.set("publish_p50_s", median(publishes), len(publishes))
	p.set("fail_frac", float64(p.failed)/float64(max(1, p.attempted)), p.attempted)
	p.set("loadgen.lag_p99_ms", lag99, len(lags))
	p.set("serve.cache_hit_frac", float64(hits)/float64(max(1, lightDesigns)), lightDesigns)
	p.set("serve.shed_frac", float64(shed)/float64(max(1, p.attempted)), p.attempted)
	if pc.tr != nil {
		if err := directCalls(ctx, e, pc.tr, p, srv.snap, samples); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// checkPublishes verifies the corpus grew by exactly one batch per
// publish, in order.
func checkPublishes(samples []sample, base int) error {
	var counts []int
	for _, s := range samples {
		if s.ev.req == nil && s.records > 0 {
			counts = append(counts, s.records)
		}
	}
	sort.Ints(counts)
	for i, c := range counts {
		if want := base + (i+1)*publishBatch; c != want {
			return fmt.Errorf("publish %d: corpus has %d records, want %d", i+1, c, want)
		}
	}
	return nil
}

func describe(ev event) string {
	if ev.req == nil {
		return "publish"
	}
	return ev.req.id()
}

// directCalls times, for the requests the traced pass sent, the same
// operation called directly through the library — the layer's own cost —
// and reports the serving layer's share as HTTP latency minus it.
func directCalls(ctx context.Context, e *env, tr *tracer, p *passResult, snap *gcbench.CorpusSnapshot, samples []sample) error {
	timed := func(layer, name string, fn func() error) (time.Duration, error) {
		sp := tr.begin(0, layer, name, "direct")
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		tr.end(sp)
		return d, err
	}
	var est *gcbench.CoverageEstimator
	d, err := timed("ensemble", "estimator", func() (err error) {
		est, err = gcbench.NewCoverageEstimator(gcbench.DefaultCoverageSamples, sampleSeed)
		return err
	})
	if err != nil {
		return err
	}
	p.set("ensemble.estimator_s", d.Seconds(), 1)

	pred, err := snap.Predictor()
	if err != nil {
		return err
	}
	pts := snap.Pool.Points
	byMethod := map[string][]float64{}
	var predictUs, readSelf, designSelf []float64
	coverageDone := 0
	for _, s := range samples {
		r := s.ev.req
		if r == nil || s.status != http.StatusOK || ctx.Err() != nil {
			continue
		}
		idx := snap.PoolSelect(gcbench.CorpusFilter{Algorithms: r.pool})
		var d time.Duration
		var err error
		switch {
		case r.kind == "read" && r.sub == "predict":
			d, err = timed("predict", "predict", func() error { _, err := pred.Predict(r.pq); return err })
			predictUs = append(predictUs, d.Seconds()*1e6)
		case r.kind == "read" && r.sub == "runs":
			d, _ = timed("corpus", "select", func() error { snap.Select(r.filter); return nil })
		case r.kind == "read" && r.sub == "behavior":
			d, _ = timed("corpus", "lookup", func() error {
				if _, ok := snap.Lookup(r.key); !ok {
					return fmt.Errorf("no record %q", r.key)
				}
				return nil
			})
		case r.kind == "read":
			continue // best is a cached design: its direct cost is a cache lookup
		case r.kind == "design" && r.sub == "greedy":
			d, _ = timed("ensemble", "greedy", func() error { gcbench.BestSpreadGreedy(pts, idx, r.n); return nil })
		case r.kind == "design" && r.sub == "exchange":
			d, _ = timed("ensemble", "exchange", func() error {
				sets := gcbench.BestSpreadGreedy(pts, idx, r.n)
				ensemble.ImproveSpreadExchange(pts, sets[r.n], idx)
				return nil
			})
		case r.kind == "design":
			d, err = timed("ensemble", "anneal", func() error {
				_, _, err := gcbench.AnnealSpread(pts, idx, gcbench.AnnealOptions{Size: r.n, Seed: r.seed})
				return err
			})
		case r.kind == "beam":
			d, err = timed("ensemble", "beam", func() error {
				_, err := gcbench.TopEnsembles(gcbench.MetricSpread, pts, idx, gcbench.TopKOptions{Size: r.n, K: 1})
				return err
			})
		case r.kind == "coverage":
			if coverageDone >= 2 && !e.tiny {
				continue // each takes seconds; two samples bound the pass
			}
			coverageDone++
			d, _ = timed("ensemble", "coverage", func() error { gcbench.BestCoverageGreedy(est, pts, idx, r.n); return nil })
		}
		if err != nil {
			return fmt.Errorf("direct %s: %w", r.id(), err)
		}
		ms := d.Seconds() * 1e3
		byMethod[r.kind+"/"+r.sub] = append(byMethod[r.kind+"/"+r.sub], ms)
		switch r.kind {
		case "read":
			readSelf = append(readSelf, s.lat.Seconds()*1e3-ms)
		case "design":
			designSelf = append(designSelf, s.lat.Seconds()*1e3-ms)
		}
	}
	p.set("predict.p50_us", median(predictUs), len(predictUs))
	for _, m := range []string{"greedy", "exchange", "anneal"} {
		xs := byMethod["design/"+m]
		p.set("ensemble."+m+"_p50_ms", median(xs), len(xs))
	}
	p.set("ensemble.beam_p50_ms", median(byMethod["beam/beam"]), len(byMethod["beam/beam"]))
	cov := byMethod["coverage/greedy"]
	p.set("ensemble.coverage_p50_s", median(cov)/1e3, len(cov))
	p.set("serve.read_self_p50_ms", median(readSelf), len(readSelf))
	p.set("serve.design_self_p50_ms", median(designSelf), len(designSelf))

	// Corpus append: the hot-publish path's store rebuild, on a private
	// store so the served one is untouched.
	var loads, appends []float64
	for i := 0; i < 3; i++ {
		var fresh *gcbench.CorpusSnapshot
		d, err := timed("corpus", "load", func() (err error) {
			fresh, err = gcbench.LoadCorpusSnapshot(filepath.Join(e.root, "runs-standard.json"))
			return err
		})
		if err != nil {
			return err
		}
		loads = append(loads, d.Seconds())
		runs := make([]*gcbench.Run, 0, publishBatch)
		for _, rec := range fresh.Records[:publishBatch] {
			runs = append(runs, rec.Run)
		}
		store := gcbench.NewCorpusStore(fresh)
		d, err = timed("corpus", "append", func() error { _, err := store.Append(runs, "perfbench"); return err })
		if err != nil {
			return err
		}
		appends = append(appends, d.Seconds())
	}
	p.set("corpus.load_s", median(loads), len(loads))
	p.set("corpus.append_s", median(appends), len(appends))
	return nil
}

// recordServe sends every catalog request once, sequentially, to a
// fresh server and records its response digest.
func recordServe(ctx context.Context, e *env, client *http.Client, srv *server, cat *catalog, ref *reference) error {
	p := newPassResult()
	for _, r := range cat.all {
		status, body, _, err := send(ctx, client, srv.base, r.method, r.path, r.body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", r.id(), status, body)
		}
		ref.check(p, r.kind, r.id(), bodyDigest(status, body))
	}
	return ref.save(e)
}
