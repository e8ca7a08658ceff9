// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed window, checks every output, and prints one JSON
// line with the metrics named in BENCHMARK.json at the repository root:
//
//	perfbench --workload spectral --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports per-layer metrics from a traced run that times calls
// into each layer's public functions from outside the program. NOTES.md
// explains the workloads, the metrics and the noise they were tuned
// against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupReps is how many times a run builds its set-up state; setup_s is
// the median of their CPU times, so one slow set-up (page faults, a GC
// cycle) does not move the number.
const setupReps = 5

// config is everything a workload's set-up and measurement depend on.
type config struct {
	seed   uint64
	window time.Duration
	trace  bool
	// tmpRoot holds the files a workload writes, inside the checkout.
	tmpRoot string
	// tiny swaps the Table I stand-ins for small graphs of the same
	// generator families, so the benchmark's own tests run in seconds.
	tiny bool
}

// outcome is what one measured window produced.
type outcome struct {
	attempted, failed int
	passes            int
	// cpu is the cpu_s metric: the process CPU seconds of one pass, the
	// median over passes for a batch workload and the mean over the
	// window for serve.
	cpu float64
	// wall is the wall time of one pass in seconds: the median pass wall
	// time of a batch workload, the mean pass latency of serve.
	wall        float64
	qualityLoss float64
	// traceErr is set when a traced run's own check failed, so its
	// per-layer numbers no longer describe the program; the run is then
	// not correct.
	traceErr error
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

// runner is a workload's set-up state.
type runner interface {
	measure(cfg config) (*outcome, error)
	close()
}

type workload struct {
	name  string
	setup func(cfg config) (runner, error)
}

var workloads = []workload{
	{"spectral", setupSpectral},
	{"fm", setupFM},
	{"embed", setupEmbed},
	{"serve", setupServe},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: spectral, fm, embed or serve")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 24, "length of the measured window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload spectral|fm|embed|serve, --seconds > 0 and --trace 0|1")
		return 2
	}
	cfg := config{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		tmpRoot: filepath.Join(".bench_build", "tmp"),
	}
	rep, err := measure(*w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure sets the workload up setupReps times, measures the last set-up
// for cfg.window and assembles the report.
func measure(w workload, cfg config) (*report, error) {
	setupS := make([]float64, 0, setupReps)
	var r runner
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			r = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		c0 := processCPU()
		var err error
		if r, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, (processCPU() - c0).Seconds())
	}
	defer r.close()

	before := sampleProc()
	o, err := r.measure(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	noise := sampleProc().since(before)
	if o.traceErr != nil {
		logf("%s: %v", w.name, o.traceErr)
	}
	logf("%s seed=%d passes=%d pass_wall_s=%.4f steal_s=%.3f cpu_s=%.3f gc_cycles=%d gc_pause_ms=%.3f",
		w.name, cfg.seed, o.passes, o.wall, noise.stealS, noise.cpuS, noise.gcCycles, noise.gcPauseMS)

	rep := &report{
		Correct:   o.failed == 0 && o.attempted > 0 && o.traceErr == nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.trace {
		for k, unit := range layerUnits {
			rep.Metrics[k] = metric{o.layers[k], unit}
		}
		rep.Metrics["pass.wall_s"] = metric{o.wall, "s"}
		rep.Metrics["proc.cpu_s"] = metric{noise.cpuS, "s"}
		rep.Metrics["proc.gc_cycles"] = metric{float64(noise.gcCycles), "count"}
		rep.Metrics["proc.gc_pause_ms"] = metric{noise.gcPauseMS, "ms"}
		rep.Metrics["proc.alloc_mb"] = metric{noise.allocMB, "MB"}
		rep.Metrics["host.steal_s"] = metric{noise.stealS, "s"}
	} else {
		okFrac := 0.0
		if o.attempted > 0 {
			okFrac = float64(o.attempted-o.failed) / float64(o.attempted)
		}
		rep.Metrics["setup_s"] = metric{median(setupS), "s"}
		rep.Metrics["cpu_s"] = metric{o.cpu, "s"}
		rep.Metrics["quality_loss"] = metric{o.qualityLoss, "frac"}
		rep.Metrics["ok_frac"] = metric{okFrac, "frac"}
		rep.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.name, k, m.Value)
		}
	}
	return rep, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// logf writes a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
