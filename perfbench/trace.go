package main

import (
	"time"

	"mlcg/internal/coarsen"
	"mlcg/internal/embed"
	"mlcg/internal/graph"
	"mlcg/internal/obs"
	"mlcg/internal/partition"
)

// The traced run replays each pipeline through the public calls of its
// layers and times every call from outside; no span is added inside the
// program. The replays copy the pipelines' private constants below; a
// change to Bisect that the replay does not mirror shows up as
// trace.replay_match < 1 rather than as silently wrong layer numbers.
const (
	spectralStartSalt = 0x5eed // SpectralBisector: Fiedler seed of the coarsest solve
	gggSalt           = 0x99   // FMBisector: GreedyGrowTarget seed
	gggTrials         = 4      // FMBisector: default GGGTrials
	fiedlerCap        = 1000   // FiedlerOptions: default MaxIter
)

// coverageTolerance is the share of a traced pass's wall time the timed
// layer calls must account for; the rest is glue (allocation of the result,
// the final cut) that belongs to no layer.
const coverageTolerance = 0.95

// selfTimes are the layer timings that partition a traced pass; their sum
// over the pass wall time is trace.coverage.
var selfTimes = []string{
	"coarsen.s", "fiedler.s", "interp.s", "split.s", "ggg.s", "fm.s",
	"parrefine.s", "embed.train_s", "embed.eval_s",
}

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not reach reads 0.
var layerUnits = map[string]string{
	"coarsen.s":                    "s",
	"coarsen.map_s":                "s",
	"coarsen.build_s":              "s",
	"coarsen.levels":               "count",
	"coarsen.work_edges":           "count",
	"coarsen.ratio":                "x",
	"coarsen.stalled":              "count",
	"coarsen.workspace_reuse_frac": "frac",
	"coarsen.cas_retries":          "count",
	"coarsen.hash_probes":          "count",
	"coarsen.speedup":              "x",
	"fiedler.s":                    "s",
	"fiedler.iters":                "count",
	"fiedler.capped_frac":          "frac",
	"spmat.spmv":                   "count",
	"spmat.gb_computed":            "GB",
	"interp.s":                     "s",
	"split.s":                      "s",
	"fiedler.speedup":              "x",
	"ggg.s":                        "s",
	"fm.s":                         "s",
	"parrefine.s":                  "s",
	"fm.cut_gain_frac":             "frac",
	"embed.train_s":                "s",
	"embed.steps":                  "count",
	"embed.steps_per_s":            "1/s",
	"embed.eval_s":                 "s",
	"embed.speedup":                "x",
	"serve.ingest_ms":              "ms",
	"serve.queue_wait_ms":          "ms",
	"serve.build_run_ms":           "ms",
	"serve.spill_ms":               "ms",
	"serve.query_ms":               "ms",
	"serve.rejected":               "count",
	"serve.cache_hit_frac":         "frac",
	"serve.write_p50_ms":           "ms",
	"serve.write_p90_ms":           "ms",
	"serve.read_p50_ms":            "ms",
	"serve.read_p99_ms":            "ms",
	"hierfmt.bytes_per_build":      "bytes",
	"loadgen.late_ms":              "ms",
	"proc.cpu_s":                   "s",
	"proc.gc_cycles":               "count",
	"proc.gc_pause_ms":             "ms",
	"proc.alloc_mb":                "MB",
	"host.steal_s":                 "s",
	"trace.coverage":               "frac",
	"trace.overhead_frac":          "frac",
	"trace.replay_match":           "frac",
}

// layers accumulates one traced pass. Keys starting with "_" are raw sums
// that finish turns into ratios.
type layers map[string]float64

// timed runs fn and adds its wall time to the layer.
func (l layers) timed(layer string, fn func()) {
	t0 := time.Now()
	fn()
	l[layer] += time.Since(t0).Seconds()
}

// finish derives the ratio metrics and the coverage of a pass whose
// operations took wall seconds in total.
func (l layers) finish(wall float64) {
	ratio := func(key string, num, den float64) {
		if den > 0 {
			l[key] = num / den
		}
	}
	ratio("coarsen.ratio", l["_ratio_sum"], l["_hierarchies"])
	ratio("coarsen.workspace_reuse_frac", l["_ws_reused"], l["_ws_reused"]+l["_ws_alloc"])
	ratio("fiedler.capped_frac", l["_fiedler_capped"], l["_fiedler_calls"])
	ratio("fm.cut_gain_frac", l["_cut_before"]-l["_cut_after"], l["_cut_before"])
	ratio("embed.steps_per_s", l["embed.steps"], l["embed.train_s"])
	var covered float64
	for _, k := range selfTimes {
		covered += l[k]
	}
	ratio("trace.coverage", covered, wall)
	for k := range l {
		if k[0] == '_' {
			delete(l, k)
		}
	}
}

// medianLayers takes each metric's median over the passes.
func medianLayers(passes []layers) layers {
	vals := map[string][]float64{}
	for _, l := range passes {
		for k, v := range l {
			vals[k] = append(vals[k], v)
		}
	}
	out := layers{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// coarsenTraced runs the coarsener under an obs trace, to read the
// program's own kernel counters, and records the hierarchy's shape.
func coarsenTraced(c coarsen.Coarsener, g *graph.Graph, l layers) (*coarsen.Hierarchy, error) {
	var h *coarsen.Hierarchy
	var err error
	var ctr map[string]int64
	l.timed("coarsen.s", func() {
		tr := obs.StartTrace("perfbench")
		h, err = c.Run(g)
		if tr != nil {
			tr.Stop()
			ctr = tr.Root.Counters()
		}
	})
	if err != nil {
		return nil, err
	}
	l.addHierarchy(h.MapTime(), h.BuildTime(), h.Levels(), h.CoarseningRatio(), h.Stalled, levelEdges(h), ctr)
	return h, nil
}

// levelEdges sums the edge counts fed to the mapping and construction of
// every level, including a stalled final attempt.
func levelEdges(h *coarsen.Hierarchy) int64 {
	var m int64
	for _, s := range h.Stats {
		m += s.M
	}
	if h.StallStats != nil {
		m += h.StallStats.M
	}
	return m
}

// addHierarchy records one hierarchy's coarsening measurements.
func (l layers) addHierarchy(mapT, buildT time.Duration, levels int, ratio float64, stalled bool, workEdges int64, ctr map[string]int64) {
	l["coarsen.map_s"] += mapT.Seconds()
	l["coarsen.build_s"] += buildT.Seconds()
	l["coarsen.levels"] += float64(levels)
	l["coarsen.work_edges"] += float64(workEdges)
	l["_ratio_sum"] += ratio
	l["_hierarchies"]++
	if stalled {
		l["coarsen.stalled"]++
	}
	l["coarsen.cas_retries"] += float64(ctr["cas_retries"])
	l["coarsen.hash_probes"] += float64(ctr["hash_probes"])
	l["_ws_reused"] += float64(ctr["workspace_bytes_reused"])
	l["_ws_alloc"] += float64(ctr["workspace_bytes_alloc"])
}

// fiedler times one Fiedler call and records its iteration count and the
// bytes its SpMVs move, computed from the Laplacian's shape: per iteration
// the CSR row pointers, column indices and values, one read of x and one
// write of y.
func fiedler(g *graph.Graph, x0 []float64, seed uint64, opt partition.FiedlerOptions, l layers) []float64 {
	var x []float64
	var iters int
	l.timed("fiedler.s", func() { x, iters = partition.Fiedler(g, x0, seed, opt) })
	n, nnz := float64(g.N()), float64(g.N())+2*float64(g.M())
	l["fiedler.iters"] += float64(iters)
	l["spmat.spmv"] += float64(iters)
	l["spmat.gb_computed"] += float64(iters) * (8*(n+1) + 12*nnz + 16*n) / 1e9
	l["_fiedler_calls"]++
	if iters >= fiedlerCap {
		l["_fiedler_capped"]++
	}
	return x
}

// replaySpectral is SpectralBisector.Bisect through public layer calls.
func replaySpectral(g *graph.Graph, b *partition.SpectralBisector, l layers) (opResult, error) {
	t0 := time.Now()
	h, err := coarsenTraced(b.Coarsener, g, l)
	if err != nil {
		return opResult{}, err
	}
	x := fiedler(h.Coarsest(), nil, b.Seed^spectralStartSalt, b.Fiedler, l)
	for i := len(h.Maps) - 1; i >= 0; i-- {
		fineG, m := h.Graphs[i], h.Maps[i]
		var xf []float64
		l.timed("interp.s", func() {
			xf = make([]float64, fineG.N())
			for u := range m {
				xf[u] = x[m[u]]
			}
		})
		x = fiedler(fineG, xf, b.Seed, b.Fiedler, l)
	}
	var part []int32
	l.timed("split.s", func() { part = partition.SplitByVectorTarget(g, x, b.TargetW0) })
	cut := partition.EdgeCut(g, part)
	return checkBisection(g, part, cut, time.Since(t0))
}

// replayFM is FMBisector.Bisect through public layer calls. The cut
// before a level's refinement is the cut after the coarser level's: a
// projected partition cuts exactly the coarse cut's weight.
func replayFM(g *graph.Graph, b *partition.FMBisector, l layers) (opResult, error) {
	t0 := time.Now()
	h, err := coarsenTraced(b.Coarsener, g, l)
	if err != nil {
		return opResult{}, err
	}
	refine := func(gg *graph.Graph, pp []int32) (cut int64) {
		if b.ParallelRefine {
			l.timed("parrefine.s", func() {
				cut = partition.RefineParallelGreedy(gg, pp, partition.ParallelRefineOptions{
					Tol: b.FM.Tol, TargetW0: b.TargetW0, Workers: b.Coarsener.Workers,
				})
			})
			return cut
		}
		fm := b.FM
		fm.TargetW0 = b.TargetW0
		l.timed("fm.s", func() { cut = partition.RefineFM(gg, pp, fm) })
		return cut
	}
	coarsest := h.Coarsest()
	var part []int32
	l.timed("ggg.s", func() { part = partition.GreedyGrowTarget(coarsest, b.Seed^gggSalt, gggTrials, b.TargetW0) })
	before := partition.EdgeCut(coarsest, part)
	after := refine(coarsest, part)
	l["_cut_before"] += float64(before)
	l["_cut_after"] += float64(after)
	for i := len(h.Maps) - 1; i >= 0; i-- {
		fineG, m := h.Graphs[i], h.Maps[i]
		var pf []int32
		l.timed("interp.s", func() {
			pf = make([]int32, fineG.N())
			for u := range m {
				pf[u] = part[m[u]]
			}
		})
		before = after
		after = refine(fineG, pf)
		l["_cut_before"] += float64(before)
		l["_cut_after"] += float64(after)
		part = pf
	}
	cut := partition.EdgeCut(g, part)
	return checkBisection(g, part, cut, time.Since(t0))
}

// replayEmbed is the embed workload's pipeline with each call timed.
func replayEmbed(g *graph.Graph, holdout float64, evalSeed uint64, c coarsen.Coarsener, opt embed.Options, l layers) (opResult, error) {
	t0 := time.Now()
	var sp *embed.EvalSplit
	var err error
	l.timed("embed.eval_s", func() { sp, err = embed.SplitForEval(g, holdout, evalSeed) })
	if err != nil {
		return opResult{}, err
	}
	h, err := coarsenTraced(c, sp.Train, l)
	if err != nil {
		return opResult{}, err
	}
	var res *embed.Result
	l.timed("embed.train_s", func() { res, err = embed.TrainHierarchy(h, opt) })
	if err != nil {
		return opResult{}, err
	}
	l["embed.steps"] += float64(res.Steps)
	var auc float64
	l.timed("embed.eval_s", func() { auc = embed.LinkAUC(res.Emb, sp) })
	return checkEmbedding(res.Emb, auc, time.Since(t0))
}
