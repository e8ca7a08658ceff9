package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlcg/internal/cli"
	"mlcg/internal/graph"
	"mlcg/internal/partition"
	"mlcg/internal/serve"
)

// The serve workload drives an in-process server over loopback HTTP with
// an open loop: requests are due on a fixed schedule whatever the server's
// state, and each latency is timed from when its request was due.
const (
	// serveRate is the open-loop rate in requests per second: a third of
	// the capacity of about 150 requests/s measured for this mix, client
	// checks included, on a 2-vCPU host (NOTES.md).
	serveRate = 50
	// serveBuildWorkers gives the server its concurrency; each build and
	// query itself runs on one worker.
	serveBuildWorkers = 2
	// serveCacheCap bounds the server's graph and hierarchy caches well
	// above the distinct graphs a run can write, so no write is refused
	// for capacity.
	serveCacheCap = 4096
)

// kinds of serve operations.
const (
	opWrite = iota
	opHit
	opPartition
	opProject
)

// serveOp is one request of the repeating pass.
type serveOp struct {
	kind int
	hot  int // index of the hot hierarchy a read targets
	k    int // parts, for partition
}

// servePass is the request mix of one pass: one write, then reads of
// every kind against the hot hierarchies.
var servePass = []serveOp{
	{kind: opWrite},
	{kind: opPartition, hot: 0, k: 2},
	{kind: opPartition, hot: 1, k: 2},
	{kind: opPartition, hot: 0, k: 4},
	{kind: opHit, hot: 0},
	{kind: opPartition, hot: 1, k: 4},
	{kind: opProject, hot: 0},
	{kind: opPartition, hot: 0, k: 8},
	{kind: opPartition, hot: 1, k: 8},
	{kind: opProject, hot: 1},
	{kind: opHit, hot: 1},
}

// hotHier is a hierarchy built during set-up that reads target.
type hotHier struct {
	g       *graph.Graph
	graphID string
	id      string
	labels  []byte // JSON body of a project request
	totalEW float64
}

type serveRunner struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	seeds  cli.Seeds
	hot    []hotHier
	// Writes upload the write base with the weight of its last edge
	// changed, so every write is a fresh graph with the same work.
	writeHead []byte // header and every edge line but the last
	lastU     int32
	lastV     int32
	writeN    int32
	served    chan struct{} // closed when the HTTP server has returned
	closeOnce sync.Once
}

func setupServe(cfg config) (runner, error) {
	s := cli.DeriveSeeds(cfg.seed)
	ins, err := standIns(serveInstances, s.Graph, cfg.tiny)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, "serve-")
	if err != nil {
		return nil, err
	}
	nproc := runtime.GOMAXPROCS(0)
	r := &serveRunner{
		dir:    dir,
		seeds:  s,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}},
		served: make(chan struct{}),
	}
	r.srv = serve.New(serve.Config{
		BuildWorkers:   serveBuildWorkers,
		Workers:        1,
		MaxGraphs:      serveCacheCap,
		MaxHierarchies: serveCacheCap,
		CacheDir:       filepath.Join(dir, "cache"),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() {
		defer close(r.served)
		r.hs.Serve(ln)
	}()
	r.url = "http://" + ln.Addr().String()

	for _, in := range ins[:2] {
		h, err := r.warm(in.g)
		if err != nil {
			r.close()
			return nil, err
		}
		r.hot = append(r.hot, h)
	}
	base := ins[2].g
	var text bytes.Buffer
	if err := base.WriteEdgeList(&text); err != nil {
		r.close()
		return nil, err
	}
	body := bytes.TrimSuffix(text.Bytes(), []byte("\n"))
	cut := bytes.LastIndexByte(body, '\n') + 1
	var u, v int32
	if _, err := fmt.Sscan(string(body[cut:]), &u, &v); err != nil {
		r.close()
		return nil, fmt.Errorf("last edge of the write base: %w", err)
	}
	r.writeHead, r.lastU, r.lastV, r.writeN = body[:cut], u, v, base.NumV
	return r, nil
}

// warm ingests g and builds its hierarchy, blocking until it is hot.
func (r *serveRunner) warm(g *graph.Graph) (hotHier, error) {
	var text bytes.Buffer
	if err := g.WriteEdgeList(&text); err != nil {
		return hotHier{}, err
	}
	var gi struct{ ID string }
	if err := r.post("/v1/graphs?format=edgelist", text.Bytes(), &gi, http.StatusCreated); err != nil {
		return hotHier{}, err
	}
	var st buildReply
	if err := r.post("/v1/hierarchies?wait=1", r.buildBody(gi.ID), &st, http.StatusOK); err != nil {
		return hotHier{}, err
	}
	if st.Status != "done" {
		return hotHier{}, fmt.Errorf("warm build %s: %s %s", st.ID, st.Status, st.Error)
	}
	labels := make([]int32, st.CoarseN)
	for i := range labels {
		labels[i] = int32(i % 4)
	}
	// Marshalling strings and integers cannot fail.
	lb, _ := json.Marshal(map[string]any{"hierarchy": st.ID, "labels": labels})
	return hotHier{g: g, graphID: gi.ID, id: st.ID, labels: lb, totalEW: float64(g.TotalEdgeWeight())}, nil
}

func (r *serveRunner) buildBody(graphID string) []byte {
	// Marshalling strings and integers cannot fail.
	b, _ := json.Marshal(map[string]any{"graph": graphID, "seed": r.seeds.Coarsen})
	return b
}

type buildReply struct {
	ID      string  `json:"id"`
	Status  string  `json:"status"`
	Cached  bool    `json:"cached"`
	Error   string  `json:"error"`
	Levels  int     `json:"levels"`
	CoarseN int32   `json:"coarsest_n"`
	Ratio   float64 `json:"coarsening_ratio"`
	Stalled bool    `json:"stalled"`
	TotalMS float64 `json:"total_ms"`
	Detail  []struct {
		M       int64   `json:"m"`
		MapMS   float64 `json:"map_ms"`
		BuildMS float64 `json:"build_ms"`
	} `json:"level_detail"`
	Counters map[string]int64 `json:"counters"`
}

// statusError is a reply whose status was not the one expected.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// post sends body and decodes a reply that must carry status want.
func (r *serveRunner) post(path string, body []byte, out any, want int) error {
	resp, err := r.client.Post(r.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeReply(resp, out, want)
}

func decodeReply(resp *http.Response, out any, want int) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &statusError{resp.StatusCode, strings.TrimSpace(string(data))}
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("malformed reply: %w", err)
	}
	return nil
}

// sample is one finished request.
type sample struct {
	kind     int
	latency  time.Duration // from due to reply
	service  time.Duration // from send to reply
	late     time.Duration // from due to send
	err      error
	rejected bool
	// partition replies: the key they answer and their cut fraction.
	key     string
	cutFrac float64
	// write builds, read back with detail in a traced run.
	detail   *buildReply
	traceDur time.Duration
	// checkDur is the client's own checking of a reply, which is not
	// part of its latency.
	checkDur time.Duration
}

// measure runs the open loop for the window and derives the metrics.
func (r *serveRunner) measure(cfg config) (*outcome, error) {
	before, err := r.scrape()
	if err != nil {
		return nil, err
	}
	interval := time.Second / serveRate
	passDur := interval * time.Duration(len(servePass))
	passes := int(cfg.window / passDur)
	if passes < 1 {
		passes = 1
	}
	nproc := runtime.GOMAXPROCS(0)
	slots := make(chan struct{}, nproc) // at most nproc requests in flight
	samples := make([]sample, passes*len(servePass))
	var wg sync.WaitGroup
	c0 := processCPU()
	start := time.Now()
	for i := range samples {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		slots <- struct{}{}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			s := &samples[i]
			op := servePass[i%len(servePass)]
			sent := time.Now()
			s.late = sent.Sub(due)
			r.do(op, i/len(servePass), s, cfg.trace)
			s.service = time.Since(sent) - s.traceDur - s.checkDur
			s.latency = s.late + s.service
			<-slots
		}(i, due)
	}
	wg.Wait()
	cpu := processCPU() - c0
	after, err := r.scrape()
	if err != nil {
		return nil, err
	}
	// Drain the server so every write's spill has finished before the
	// spill files are measured.
	r.shutdown()
	o, err := r.summarize(cfg, samples, passes, before, after)
	if o != nil {
		o.cpu = cpu.Seconds() / float64(passes)
	}
	return o, err
}

// do performs one operation and checks its reply.
func (r *serveRunner) do(op serveOp, pass int, s *sample, trace bool) {
	s.kind = op.kind
	fail := func(err error) {
		s.err = err
		var se *statusError
		if errors.As(err, &se) && (se.code == http.StatusTooManyRequests || se.code == http.StatusInsufficientStorage) {
			s.rejected = true
		}
	}
	switch op.kind {
	case opWrite:
		suffix := fmt.Sprintf("%d %d %d\n", r.lastU, r.lastV, 2+pass)
		body := io.MultiReader(bytes.NewReader(r.writeHead), strings.NewReader(suffix))
		req, err := http.NewRequest(http.MethodPost, r.url+"/v1/graphs?format=edgelist", body)
		if err != nil {
			fail(err)
			return
		}
		req.ContentLength = int64(len(r.writeHead) + len(suffix))
		resp, err := r.client.Do(req)
		if err != nil {
			fail(err)
			return
		}
		var gi struct {
			ID     string
			N      int32
			Cached bool
		}
		if err := decodeReply(resp, &gi, http.StatusCreated); err != nil {
			fail(err)
			return
		}
		if gi.N != r.writeN || gi.Cached {
			fail(fmt.Errorf("write ingested n=%d cached=%v, want a fresh graph of %d vertices", gi.N, gi.Cached, r.writeN))
			return
		}
		var st buildReply
		if err := r.post("/v1/hierarchies?wait=1", r.buildBody(gi.ID), &st, http.StatusOK); err != nil {
			fail(err)
			return
		}
		if st.Status != "done" || st.Cached || st.Levels < 1 {
			fail(fmt.Errorf("cold build %s: status %s cached=%v levels=%d", st.ID, st.Status, st.Cached, st.Levels))
			return
		}
		if trace {
			t0 := time.Now()
			resp, err := r.client.Get(r.url + "/v1/hierarchies/" + st.ID + "?detail=1")
			if err == nil {
				var d buildReply
				if err = decodeReply(resp, &d, http.StatusOK); err == nil {
					s.detail = &d
				}
			}
			s.traceDur = time.Since(t0)
			if err != nil {
				fail(err)
			}
		}
	case opHit:
		h := r.hot[op.hot]
		var st buildReply
		if err := r.post("/v1/hierarchies", r.buildBody(h.graphID), &st, http.StatusOK); err != nil {
			fail(err)
			return
		}
		if st.ID != h.id || st.Status != "done" || !st.Cached {
			fail(fmt.Errorf("cache-hit build %s: status %s cached=%v", st.ID, st.Status, st.Cached))
		}
	case opPartition:
		h := r.hot[op.hot]
		// Marshalling strings, integers and booleans cannot fail.
		body, _ := json.Marshal(map[string]any{"hierarchy": h.id, "k": op.k, "seed": r.seeds.Partition, "assignment": true})
		var rep struct {
			K          int
			Cut        int64
			Assignment []int32
		}
		if err := r.post("/v1/partition", body, &rep, http.StatusOK); err != nil {
			fail(err)
			return
		}
		t0 := time.Now()
		err := checkKWay(h.g, rep.Assignment, op.k, rep.Cut)
		s.checkDur = time.Since(t0)
		if err != nil {
			fail(err)
			return
		}
		s.key = fmt.Sprintf("%d/%d", op.hot, op.k)
		s.cutFrac = float64(rep.Cut) / h.totalEW
	case opProject:
		h := r.hot[op.hot]
		var rep struct{ Assignment []int32 }
		if err := r.post("/v1/project", h.labels, &rep, http.StatusOK); err != nil {
			fail(err)
			return
		}
		if len(rep.Assignment) != h.g.N() {
			fail(fmt.Errorf("project returned %d labels for %d vertices", len(rep.Assignment), h.g.N()))
		}
	}
}

// checkKWay verifies a k-way reply: one label in [0,k) per vertex, and the
// reported cut is the cut.
func checkKWay(g *graph.Graph, part []int32, k int, cut int64) error {
	if len(part) != g.N() {
		return fmt.Errorf("partition returned %d labels for %d vertices", len(part), g.N())
	}
	for u, p := range part {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("vertex %d in part %d of %d", u, p, k)
		}
	}
	if c := partition.KWayEdgeCut(g, part); c != cut {
		return fmt.Errorf("reported k-way cut %d, recomputed %d", cut, c)
	}
	return nil
}

func (r *serveRunner) summarize(cfg config, samples []sample, passes int, before, after promSample) (*outcome, error) {
	o := &outcome{passes: passes}
	var total float64
	first := map[string]float64{}
	var writes, reads, late []float64
	repeats, repeatsOK := 0, 0
	l := layers{}
	var perWrite []layers
	var writeService, traceDur, service float64
	for i := range samples {
		s := &samples[i]
		o.attempted++
		if s.err == nil && s.key != "" {
			if f, ok := first[s.key]; !ok {
				first[s.key] = s.cutFrac
			} else {
				repeats++
				if f == s.cutFrac {
					repeatsOK++
				} else {
					s.err = fmt.Errorf("partition %s cut fraction %v, first reply %v", s.key, s.cutFrac, f)
				}
			}
		}
		if s.err != nil {
			o.failed++
			logf("serve request %d: %v", i, s.err)
		}
		if s.rejected {
			l["serve.rejected"]++
		}
		ms := float64(s.latency) / float64(time.Millisecond)
		total += s.latency.Seconds()
		late = append(late, float64(s.late)/float64(time.Millisecond))
		service += s.service.Seconds()
		traceDur += s.traceDur.Seconds()
		if s.kind == opWrite {
			writes = append(writes, ms)
			writeService += s.service.Seconds()
			if d := s.detail; d != nil {
				wl := layers{}
				var mapMS, buildMS float64
				var edges int64
				for _, lv := range d.Detail {
					mapMS += lv.MapMS
					buildMS += lv.BuildMS
					edges += lv.M
				}
				wl["coarsen.s"] = d.TotalMS / 1000
				wl.addHierarchy(time.Duration(mapMS*1e6), time.Duration(buildMS*1e6), d.Levels, d.Ratio, d.Stalled, edges, d.Counters)
				wl.finish(0)
				perWrite = append(perWrite, wl)
			}
		} else {
			reads = append(reads, ms)
		}
	}
	// The pass wall time is the latency of every request in the window,
	// each from when it was due, per pass.
	o.wall = total / float64(passes)
	// The quality loss is the mean over the distinct partition queries, so
	// it does not depend on how many passes the window held.
	keys := make([]string, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o.qualityLoss += first[k] / float64(len(keys))
		logf("partition %s: cut fraction %.6g", k, first[k])
	}
	if !cfg.trace {
		return o, nil
	}

	for k, v := range medianLayers(perWrite) {
		l[k] = v
	}
	d := after.minus(before)
	l["serve.ingest_ms"] = d.meanMS("mlcg_ingest_seconds")
	l["serve.queue_wait_ms"] = d.meanMS("mlcg_build_queue_wait_seconds")
	l["serve.build_run_ms"] = d.meanMS("mlcg_build_run_seconds")
	l["serve.spill_ms"] = d.meanMS("mlcg_hier_spill_seconds")
	l["serve.query_ms"] = d.meanMS("mlcg_query_seconds")
	if req := d["mlcg_builds_requested_total"]; req > 0 {
		l["serve.cache_hit_frac"] = d["mlcg_build_cache_hits_total"] / req
	}
	l["serve.write_p50_ms"] = quantile(writes, 0.5)
	l["serve.write_p90_ms"] = quantile(writes, 0.9)
	l["serve.read_p50_ms"] = quantile(reads, 0.5)
	l["serve.read_p99_ms"] = quantile(reads, 0.99)
	l["loadgen.late_ms"] = quantile(late, 0.5)
	if size, n := r.spillBytes(samples); n > 0 {
		l["hierfmt.bytes_per_build"] = size / float64(n)
	}
	// Coverage: the server's own ingest, queue and build stages against
	// the writes' latency seen by the client.
	if writeService > 0 {
		l["trace.coverage"] = (d["mlcg_ingest_seconds_sum"] + d["mlcg_build_queue_wait_seconds_sum"] + d["mlcg_build_run_seconds_sum"]) / writeService
	}
	if service > 0 {
		l["trace.overhead_frac"] = traceDur / service
	}
	if repeats > 0 {
		l["trace.replay_match"] = float64(repeatsOK) / float64(repeats)
	}
	o.layers = l
	return o, nil
}

// spillBytes sums the spill files of the writes' hierarchies.
func (r *serveRunner) spillBytes(samples []sample) (float64, int) {
	var total float64
	n := 0
	for _, s := range samples {
		if s.detail == nil {
			continue
		}
		if fi, err := os.Stat(filepath.Join(r.dir, "cache", s.detail.ID+".mlcg")); err == nil {
			total += float64(fi.Size())
			n++
		}
	}
	return total, n
}

// promSample is a /metrics scrape: each series summed over its labels.
type promSample map[string]float64

func (r *serveRunner) scrape() (promSample, error) {
	resp, err := r.client.Get(r.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

func (p promSample) minus(q promSample) promSample {
	out := promSample{}
	for k, v := range p {
		out[k] = v - q[k]
	}
	return out
}

// meanMS is a histogram family's mean observation in milliseconds.
func (p promSample) meanMS(family string) float64 {
	if n := p[family+"_count"]; n > 0 {
		return p[family+"_sum"] / n * 1000
	}
	return 0
}

// shutdown stops the listener and drains the server's builds and spills.
func (r *serveRunner) shutdown() {
	r.closeOnce.Do(func() {
		if r.hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			r.hs.Shutdown(ctx)
			cancel()
			<-r.served
		}
		r.srv.Close()
		r.client.CloseIdleConnections()
	})
}

func (r *serveRunner) close() {
	r.shutdown()
	os.RemoveAll(r.dir)
}
