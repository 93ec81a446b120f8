package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one reported number with its unit and the number of
// samples it was computed from.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metricDef declares a metric's name and unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every workload reports from an untraced pass.
// They must match the end_to_end list of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var allAlgorithms = []string{"CC", "KC", "TC", "SSSP", "PR", "AD", "KM",
	"ALS", "NMF", "SGD", "SVD", "Jacobi", "LBP", "DD"}

// modelLayers maps each non-GAS execution model to the algorithms whose
// per-model time is reported.
var modelLayers = []struct {
	Model string
	Algs  []string
}{
	{"pregel", []string{"CC", "SSSP", "PR"}},
	{"xstream", []string{"CC", "SSSP", "PR"}},
	{"graphcentric", []string{"CC", "SSSP"}},
}

// perLayer are the metrics a traced pass reports, in BENCHMARK.json's
// per_layer order.
func perLayer() []metricDef {
	defs := []metricDef{{"gen.s", "s"}, {"graph.build_s", "s"}}
	for _, a := range allAlgorithms {
		defs = append(defs, metricDef{"engine." + a + ".s", "s"}, metricDef{"engine." + a + ".mteps", "Medges/s"})
	}
	defs = append(defs,
		metricDef{"engine.gather_s", "s"}, metricDef{"engine.apply_s", "s"},
		metricDef{"engine.scatter_s", "s"}, metricDef{"engine.barrier_s", "s"},
		metricDef{"engine.eread", "count"}, metricDef{"engine.updt", "count"},
		metricDef{"engine.msg", "count"}, metricDef{"engine.iterations", "count"})
	for _, m := range modelLayers {
		for _, a := range m.Algs {
			defs = append(defs, metricDef{m.Model + "." + a + ".s", "s"})
		}
	}
	defs = append(defs,
		metricDef{"sweep.journal_s", "s"}, metricDef{"sweep.journal_p99_ms", "ms"},
		metricDef{"sweep.save_s", "s"}, metricDef{"sweep.idle_frac", "frac"},
		metricDef{"corpus.load_s", "s"}, metricDef{"corpus.append_s", "s"},
		metricDef{"predict.p50_us", "us"},
		metricDef{"ensemble.estimator_s", "s"},
		metricDef{"ensemble.greedy_p50_ms", "ms"}, metricDef{"ensemble.exchange_p50_ms", "ms"},
		metricDef{"ensemble.anneal_p50_ms", "ms"}, metricDef{"ensemble.beam_p50_ms", "ms"},
		metricDef{"ensemble.coverage_p50_s", "s"},
		metricDef{"serve.read_self_p50_ms", "ms"}, metricDef{"serve.design_self_p50_ms", "ms"},
		metricDef{"serve.cache_hit_frac", "frac"}, metricDef{"serve.shed_frac", "frac"},
		metricDef{"loadgen.lag_p99_ms", "ms"},
	)
	defs = append(defs, serveMetrics...)
	defs = append(defs, metricDef{"fail_frac", "frac"})
	for _, d := range endToEnd {
		defs = append(defs, metricDef{"trace.overhead." + d.Name, d.Unit})
	}
	return defs
}

// serveMetrics are serve-mixed's own user-facing latencies. Only one
// workload has them, so they are reported with the per-layer metrics
// (and in every untraced run's report lines), not as end-to-end metrics.
var serveMetrics = []metricDef{
	{"read_p50_ms", "ms"}, {"read_p99_ms", "ms"},
	{"design_p50_ms", "ms"}, {"design_p90_ms", "ms"},
	{"coverage_p50_s", "s"}, {"publish_p50_s", "s"},
}

// unitOf returns the declared unit of a metric name.
func unitOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range perLayer() {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// secondsOf converts durations to seconds scaled by unit (1 for s, 1e3
// for ms, 1e6 for µs).
func secondsOf(ds []time.Duration, scale float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * scale
	}
	return out
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// watchRSS samples the process's resident set size every 5 ms until the
// returned function is called, which returns the largest sample in MiB.
// It gives the peak of one pass, which the process-wide high-water mark
// of peakRSSMB cannot once an earlier pass has run.
func watchRSS() func() float64 {
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		best := residentMB()
		for {
			select {
			case <-tick.C:
				best = max(best, residentMB())
			case <-stop:
				peak <- max(best, residentMB())
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-peak
	}
}

// residentMB is the process's current resident set size in MiB, from
// /proc/self/statm (0 where that file cannot be read).
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
