package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"mlcg/internal/cli"
	"mlcg/internal/coarsen"
	"mlcg/internal/embed"
	"mlcg/internal/gen"
	"mlcg/internal/graph"
	"mlcg/internal/partition"
)

// The batch workloads run at one worker: on a small shared VM a p=2 pass
// time measures the hypervisor as much as the program (NOTES.md). The
// traced run repeats the pass at GOMAXPROCS workers for the *.speedup
// metrics, which are informational.
const batchWorkers = 1

// embedEpochs is the coarsest-level epoch count of the embed workload, the
// setting the repository's embedding bench rows use.
const embedEpochs = 16

// embedHoldout is the share of edges held out for link prediction.
const embedHoldout = 0.1

type instance struct {
	name string
	g    *graph.Graph
}

// standInGen generates the Table I stand-ins the workloads use, with the
// generator parameters gen.Suite uses at scale 1 (TestStandInsMatchSuite
// keeps the two in step). Generating only these keeps set-up time about
// the workloads' own inputs rather than the whole suite.
var standInGen = map[string]func(seed uint64) *graph.Graph{
	"rgg24":      func(s uint64) *graph.Graph { return gen.RGG(42000, 0, s+1) },
	"delaunay24": func(s uint64) *graph.Graph { return gen.TriMesh(130, 130, s+3) },
	"channel050": func(uint64) *graph.Graph { return gen.Grid2D(110, 110) },
	"ic04":       func(s uint64) *graph.Graph { return gen.WebLike(24000, s+6) },
	"Orkut":      func(s uint64) *graph.Graph { return gen.BA(16000, 12, s+7) },
	"kron21":     func(s uint64) *graph.Graph { return gen.RMAT(14, 12, s+10) },
	"products":   func(s uint64) *graph.Graph { return gen.Caveman(800, 14, 0.5, s+11) },
}

// tinyStandInGen generates small members of the same generator families,
// for the benchmark's own tests.
var tinyStandInGen = map[string]func(seed uint64) *graph.Graph{
	"rgg24":      func(s uint64) *graph.Graph { return gen.RGG(1500, 0, s+1) },
	"delaunay24": func(s uint64) *graph.Graph { return gen.TriMesh(30, 30, s+3) },
	"channel050": func(uint64) *graph.Graph { return gen.Grid2D(30, 30) },
	"ic04":       func(s uint64) *graph.Graph { return gen.WebLike(1500, s+6) },
	"Orkut":      func(s uint64) *graph.Graph { return gen.BA(1000, 6, s+7) },
	"kron21":     func(s uint64) *graph.Graph { return gen.RMAT(10, 8, s+10) },
	"products":   func(s uint64) *graph.Graph { return gen.Caveman(80, 8, 0.5, s+11) },
}

// The instance sets of the workloads.
var (
	spectralInstances = []string{"rgg24", "delaunay24"}
	fmInstances       = []string{"Orkut", "ic04", "kron21", "channel050"}
	embedInstances    = []string{"rgg24", "products"}
	// serveInstances are the two hot hierarchies and the write base.
	serveInstances = []string{"rgg24", "delaunay24", "ic04"}
)

// standIns returns the named stand-ins generated from seed.
func standIns(names []string, seed uint64, tiny bool) ([]instance, error) {
	table := standInGen
	if tiny {
		table = tinyStandInGen
	}
	out := make([]instance, len(names))
	for i, n := range names {
		f := table[n]
		if f == nil {
			return nil, fmt.Errorf("no stand-in named %q", n)
		}
		out[i] = instance{n, f(seed)}
	}
	return out, nil
}

// coarsener is the mlcg-partition default: HEC mapping with the adaptive
// construction policy. The policy keeps per-hierarchy state, so every run
// gets its own.
func coarsener(seed uint64, workers int) coarsen.Coarsener {
	return coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: &coarsen.AutoConstruct{}, Seed: seed, Workers: workers}
}

// opResult is one checked operation output.
type opResult struct {
	elapsed time.Duration
	// loss is the operation's quality loss: the cut fraction of a
	// bisection, 1 - AUC of an embedding.
	loss float64
	// digest fingerprints the output, for the determinism and replay
	// checks.
	digest uint64
}

func (r opResult) sameOutput(o opResult) bool {
	return r.digest == o.digest && r.loss == o.loss
}

// batchOp is one operation of a batch pass.
type batchOp struct {
	name string
	// run performs the operation untraced and checks its output.
	run func(workers int) (opResult, error)
	// replay performs it through the layers' public calls, adding each
	// layer's time and counts to l, and checks its output.
	replay func(workers int, l layers) (opResult, error)
}

type batchRunner struct{ ops []batchOp }

func (b *batchRunner) close() {}

func setupSpectral(cfg config) (runner, error) {
	s := cli.DeriveSeeds(cfg.seed)
	ins, err := standIns(spectralInstances, s.Graph, cfg.tiny)
	if err != nil {
		return nil, err
	}
	b := &batchRunner{}
	for _, in := range ins {
		g := in.g
		bisector := func(p int) *partition.SpectralBisector {
			return &partition.SpectralBisector{
				Coarsener: coarsener(s.Coarsen, p),
				Fiedler:   partition.FiedlerOptions{Workers: p},
				Seed:      s.Partition,
			}
		}
		b.ops = append(b.ops, batchOp{
			name: in.name,
			run:  func(p int) (opResult, error) { return runBisection(g, bisector(p).Bisect) },
			replay: func(p int, l layers) (opResult, error) {
				return replaySpectral(g, bisector(p), l)
			},
		})
	}
	return b, nil
}

func setupFM(cfg config) (runner, error) {
	s := cli.DeriveSeeds(cfg.seed)
	ins, err := standIns(fmInstances, s.Graph, cfg.tiny)
	if err != nil {
		return nil, err
	}
	b := &batchRunner{}
	for _, in := range ins {
		for _, parallel := range []bool{false, true} {
			g, parallel := in.g, parallel
			bisector := func(p int) *partition.FMBisector {
				return &partition.FMBisector{Coarsener: coarsener(s.Coarsen, p), Seed: s.Partition, ParallelRefine: parallel}
			}
			name := in.name + "/fm"
			if parallel {
				name = in.name + "/parrefine"
			}
			b.ops = append(b.ops, batchOp{
				name: name,
				run:  func(p int) (opResult, error) { return runBisection(g, bisector(p).Bisect) },
				replay: func(p int, l layers) (opResult, error) {
					return replayFM(g, bisector(p), l)
				},
			})
		}
	}
	return b, nil
}

func setupEmbed(cfg config) (runner, error) {
	s := cli.DeriveSeeds(cfg.seed)
	ins, err := standIns(embedInstances, s.Graph, cfg.tiny)
	if err != nil {
		return nil, err
	}
	b := &batchRunner{}
	for _, in := range ins {
		g := in.g
		opts := func(p int) embed.Options { return embed.Options{Epochs: embedEpochs, Seed: s.Embed, Workers: p} }
		b.ops = append(b.ops, batchOp{
			name: in.name,
			run: func(p int) (opResult, error) {
				t0 := time.Now()
				sp, err := embed.SplitForEval(g, embedHoldout, s.Eval)
				if err != nil {
					return opResult{}, err
				}
				c := coarsener(s.Coarsen, p)
				h, err := c.Run(sp.Train)
				if err != nil {
					return opResult{}, err
				}
				res, err := embed.TrainHierarchy(h, opts(p))
				if err != nil {
					return opResult{}, err
				}
				auc := embed.LinkAUC(res.Emb, sp)
				return checkEmbedding(res.Emb, auc, time.Since(t0))
			},
			replay: func(p int, l layers) (opResult, error) {
				return replayEmbed(g, embedHoldout, s.Eval, coarsener(s.Coarsen, p), opts(p), l)
			},
		})
	}
	return b, nil
}

// runBisection times one Bisect call and checks its output.
func runBisection(g *graph.Graph, bisect func(*graph.Graph) (*partition.Result, error)) (opResult, error) {
	t0 := time.Now()
	r, err := bisect(g)
	el := time.Since(t0)
	if err != nil {
		return opResult{}, err
	}
	return checkBisection(g, r.Part, r.Cut, el)
}

// checkBisection verifies a bisection the way a caller would: the part
// vector covers every vertex with labels in {0,1}, the balance holds at
// the partitioner's default tolerance, and the reported cut is the cut.
func checkBisection(g *graph.Graph, part []int32, cut int64, el time.Duration) (opResult, error) {
	if err := partition.CheckBisection(g, part, 0); err != nil {
		return opResult{}, err
	}
	if c := partition.EdgeCut(g, part); c != cut {
		return opResult{}, fmt.Errorf("reported cut %d, recomputed %d", cut, c)
	}
	h := fnv.New64a()
	buf := make([]byte, 0, len(part)+8)
	for _, p := range part {
		buf = append(buf, byte(p))
	}
	buf = fmt.Appendf(buf, "|%d", cut)
	h.Write(buf)
	return opResult{elapsed: el, loss: float64(cut) / float64(g.TotalEdgeWeight()), digest: h.Sum64()}, nil
}

// checkEmbedding verifies that every coordinate is finite and the AUC is a
// probability; the loss is 1 - AUC.
func checkEmbedding(e *embed.Embedding, auc float64, el time.Duration) (opResult, error) {
	h := fnv.New64a()
	buf := make([]byte, 4)
	for i, v := range e.Vecs {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return opResult{}, fmt.Errorf("embedding coordinate %d is %v", i, v)
		}
		b := math.Float32bits(v)
		buf[0], buf[1], buf[2], buf[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
		h.Write(buf)
	}
	if !(auc >= 0 && auc <= 1) {
		return opResult{}, fmt.Errorf("AUC %v outside [0,1]", auc)
	}
	fmt.Fprintf(h, "|%x", math.Float64bits(auc))
	return opResult{elapsed: el, loss: 1 - auc, digest: h.Sum64()}, nil
}

// passResult is one pass over a batch workload's operations.
type passResult struct {
	wall    float64 // summed operation time, seconds
	results []opResult
	errs    []error
}

func (b *batchRunner) pass(fn func(op batchOp) (opResult, error)) passResult {
	pr := passResult{results: make([]opResult, len(b.ops)), errs: make([]error, len(b.ops))}
	for i, op := range b.ops {
		r, err := fn(op)
		pr.results[i], pr.errs[i] = r, err
		pr.wall += r.elapsed.Seconds()
	}
	return pr
}

// measure runs passes until the next one would overrun the window. A
// traced run cycles through an untraced pass, a traced replay at one
// worker and a traced replay at GOMAXPROCS workers.
func (b *batchRunner) measure(cfg config) (*outcome, error) {
	o := &outcome{}
	var ref *passResult
	// count records an operation; the first untraced pass is the
	// reference every later pass must reproduce bit for bit.
	count := func(pr passResult, deterministic bool) {
		for i := range b.ops {
			o.attempted++
			err := pr.errs[i]
			if err == nil && deterministic && !pr.results[i].sameOutput(ref.results[i]) {
				err = fmt.Errorf("output differs from the first untraced pass")
			}
			if err != nil {
				o.failed++
				logf("%s: %v", b.ops[i].name, err)
			}
		}
	}
	var passWall, passCPU, tracedWall []float64
	var traceP1, traceN []layers
	replayOK, replays := 0, 0
	nproc := runtime.GOMAXPROCS(0)

	start := time.Now()
	for last := time.Duration(0); ref == nil || time.Since(start)+last <= cfg.window; {
		t0 := time.Now()
		// Every pass starts from a collected heap, so the GC cycles that
		// land inside it do not depend on what the previous pass left.
		runtime.GC()
		c0 := processCPU()
		pr := b.pass(func(op batchOp) (opResult, error) { return op.run(batchWorkers) })
		passCPU = append(passCPU, (processCPU() - c0).Seconds())
		if ref == nil {
			ref = &pr
		}
		count(pr, true)
		passWall = append(passWall, pr.wall)

		if cfg.trace {
			for _, p := range []int{batchWorkers, nproc} {
				l := layers{}
				runtime.GC()
				tr := b.pass(func(op batchOp) (opResult, error) { return op.replay(p, l) })
				// A parallel refiner's output depends on the schedule at
				// p > 1, so only the one-worker replay must reproduce
				// the untraced pass; a one-worker replay that does not
				// is a failed operation.
				count(tr, p == batchWorkers)
				l.finish(tr.wall)
				if p == batchWorkers {
					traceP1 = append(traceP1, l)
					tracedWall = append(tracedWall, tr.wall)
					for i, r := range tr.results {
						replays++
						if tr.errs[i] == nil && r.sameOutput(ref.results[i]) {
							replayOK++
						}
					}
				} else {
					traceN = append(traceN, l)
				}
			}
		}
		last = time.Since(t0)
	}
	o.passes, o.cpu, o.wall = len(passWall), median(passCPU), median(passWall)
	// The quality loss weighs every operation equally, so one large
	// instance's luck does not set the workload's number.
	for i, r := range ref.results {
		o.qualityLoss += r.loss / float64(len(ref.results))
		logf("%s: %.4gs, loss %.6g", b.ops[i].name, r.elapsed.Seconds(), r.loss)
	}
	if cfg.trace {
		o.layers = medianLayers(traceP1)
		ln := medianLayers(traceN)
		for k, speedup := range map[string]string{
			"coarsen.s":     "coarsen.speedup",
			"fiedler.s":     "fiedler.speedup",
			"embed.train_s": "embed.speedup",
		} {
			if o.layers[k] > 0 && ln[k] > 0 {
				o.layers[speedup] = o.layers[k] / ln[k]
			}
		}
		if c := o.layers["trace.coverage"]; c < coverageTolerance {
			o.traceErr = fmt.Errorf("trace coverage %.3f is below the %.2f tolerance: a layer call is missing from the replay", c, coverageTolerance)
		}
		o.layers["trace.overhead_frac"] = median(tracedWall)/o.wall - 1
		o.layers["trace.replay_match"] = float64(replayOK) / float64(replays)
	}
	return o, nil
}
