// Command rtbench is the end-to-end benchmark of rtetherd. It builds
// nothing itself (run.sh builds rtetherd and this program from the
// checkout); it starts the daemon as a child process on a topology
// document, drives it open loop from one load process over one pipelined
// binary connection and one HTTP connection, checks every verdict with
// its own admission checker, and prints the metrics of BENCHMARK.json.
//
//	rtbench -daemon .bench_build/rtetherd -workdir .bench_build \
//	    --workload star_wire --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it instead replays the same request stream through
// each layer in-process and prints the per-layer metrics (trace.go).
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("rtbench", flag.ContinueOnError)
	var (
		daemonBin = fs.String("daemon", "", "rtetherd binary (required)")
		workdir   = fs.String("workdir", "", "directory for the topology document and span dumps (required)")
		workload  = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed      = fs.Int64("seed", 1, "seed of the workload's inputs")
		seconds   = fs.Int("seconds", 20, "measured length of the run")
		trace     = fs.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end run")
		closed    = fs.Bool("closed", false, "reference mode: replay the first churn stream closed loop, two requests in flight, and print the rate")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *daemonBin == "" || *workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "rtbench: -daemon and -workdir are required, --seconds >= 1, --trace 0|1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	w, err := buildWorkload(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		return 2
	}
	if *closed {
		return closedLoopRef(w, *daemonBin, *workdir)
	}
	var res result
	if *trace == 1 {
		res, err = traced(w, *daemonBin, *workdir, *seed)
	} else {
		res, err = endToEnd(w, *daemonBin, *workdir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
	}
	out, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", merr)
		return 1
	}
	fmt.Println(string(out))
	if err != nil || !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// writeScenario writes the topology document rtetherd loads.
func writeScenario(w *Workload, workdir string) (string, error) {
	b, err := json.Marshal(scenarioDoc(w))
	if err != nil {
		return "", err
	}
	f, err := os.CreateTemp(workdir, "scenario-*.json")
	if err != nil {
		return "", err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// boot starts a daemon and admits the preload, timing both: one set-up.
// The run's samples and counts carry over from earlier daemons; the
// checker starts afresh with the daemon.
func (r *run) boot(daemonBin, scen string) (time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(daemonBin, scen)
	if err != nil {
		return 0, err
	}
	r.d, r.chk, r.preloadIDs = d, newChecker(&r.w.Topo), nil
	if r.bin, err = dialBin(d.binAddr); err == nil {
		err = r.preload()
	}
	took := time.Since(t0)
	if err != nil {
		r.close()
		return 0, err
	}
	return took, nil
}

// close stops the current daemon, if any.
func (r *run) close() {
	if r.bin != nil {
		r.bin.close()
		r.bin = nil
	}
	r.web.CloseIdleConnections()
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
}

func newRun(w *Workload) *run {
	return &run{w: w, web: newHTTPClient(), ops: map[string]*opStats{}}
}

// endToEnd runs one measured run: each churn stream on a freshly set-up
// daemon, followed on that daemon by the end-of-churn checks, the
// sequential pass, the recovery passes and a final check. Samples, CPU
// and counts are pooled over the daemons.
func endToEnd(w *Workload, daemonBin, workdir string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	scen, err := writeScenario(w, workdir)
	if err != nil {
		return res, err
	}
	defer os.Remove(scen)
	r := newRun(w)
	defer r.close()
	var setups, rss []float64
	var churned churnResult
	for k, stream := range w.Streams {
		if k > 0 {
			r.close()
		}
		took, err := r.boot(daemonBin, scen)
		if err != nil {
			return res, err
		}
		setups = append(setups, took.Seconds())
		ch, err := r.churn(stream, w.Segment)
		if err == nil {
			err = r.endPhase(ch)
		}
		if err == nil {
			err = r.sequential(stream, w.Seq)
		}
		if err == nil && w.Topo.Star() {
			err = r.recoverStar(w.Recovery)
		} else if err == nil {
			err = r.recoverRing(w.Recovery)
		}
		if err == nil {
			err = r.checkState("end of segment")
		}
		var peak int64
		if err == nil {
			peak, err = r.d.peakRSS()
		}
		if err != nil {
			return r.result(res, churned, err)
		}
		rss = append(rss, float64(peak)/(1<<20))
		churned.cpu += ch.cpu
		churned.ops += ch.ops
	}
	res, err = r.result(res, churned, nil)
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(setups))
	put("recovery_p50_ms", "ms", median(r.recovery))
	put("daemon_cpu_us_per_op", "us", float64(churned.cpu)/float64(time.Microsecond)/float64(churned.ops))
	put("daemon_rss_mb", "MB", median(rss))
	return res, err
}

// result prints the run report and fills in the accounting.
func (r *run) result(res result, ch churnResult, err error) (result, error) {
	r.report(os.Stdout, ch)
	res.Attempted, res.Failed = r.totals()
	res.Correct = err == nil && len(r.errs) == 0
	return res, err
}

// closedWindow is how many requests the closed-loop reference keeps in
// flight on the one binary connection.
const closedWindow = 2

// closedLoopRef prints the closed-loop rate of one workload's first churn
// stream. It is a reference figure, not a metric: it depends on how many
// requests are kept in flight and on what else the host runs.
func closedLoopRef(w *Workload, daemonBin, workdir string) int {
	scen, err := writeScenario(w, workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		return 1
	}
	defer os.Remove(scen)
	r := newRun(w)
	defer r.close()
	if _, err := r.boot(daemonBin, scen); err != nil {
		fmt.Fprintln(os.Stderr, "rtbench:", err)
		return 1
	}
	rate, done, err := r.closedLoop(w.Streams[0], closedWindow)
	if err == nil {
		err = r.checkState("end of closed loop")
	}
	if err != nil || len(r.errs) > 0 {
		fmt.Fprintln(os.Stderr, "rtbench:", err, r.errs)
		return 1
	}
	fmt.Printf("%s closed loop, %d in flight: %.0f ops/s over %d operations\n", w.Name, closedWindow, rate, done)
	return 0
}

// endPhase closes the churn phase: with every establish answered and the
// remaining releases held back, the daemon's admitted set is checked,
// then the held releases are sent.
func (r *run) endPhase(ch churnResult) error {
	if err := r.checkState("end of churn"); err != nil {
		return err
	}
	if err := r.releaseAll(ch.flush, "release_flush"); err != nil {
		return err
	}
	return r.checkState("after churn releases")
}

// totals sums attempted and failed operations over every kind.
func (r *run) totals() (attempted, failed int) {
	for _, s := range r.ops {
		attempted += s.attempted
		failed += s.failed
	}
	return attempted, failed
}

// report prints the run's accounting: per operation kind attempted,
// rejected and failed, and how late the open-loop generator ran.
func (r *run) report(f *os.File, ch churnResult) {
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(f, "workload %s: %d establishes, %d releases, %d queries, %d sequential rounds, %d recovery passes timed\n",
		r.w.Name, len(r.est), len(r.rel), len(r.query), len(r.seqEst), len(r.recovery))
	for _, k := range kinds {
		s := r.ops[k]
		fmt.Fprintf(f, "  %-15s attempted %6d  rejected %5d (off-route %d)  failed %d\n", k, s.attempted, s.rejected, s.offRoute, s.failed)
	}
	tail := tailPercentile(len(r.est))
	fmt.Fprintf(f, "  establish latency: p50 %.3f ms, p%g %.3f ms over %d; release: p50 %.3f ms, p%g %.3f ms over %d; stats query p50 %.3f ms over %d\n",
		percentile(r.est, 50), tail, percentile(r.est, tail), len(r.est), percentile(r.rel, 50), tail, percentile(r.rel, tail), len(r.rel),
		percentile(r.query, 50), len(r.query))
	fmt.Fprintf(f, "  generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d sends; monitor lateness p50 %.3f ms\n",
		percentile(r.late, 50), percentile(r.late, 99), percentile(r.late, 100), len(r.late), percentile(r.queryLate, 50))
	if len(r.seqEst) > 0 {
		fmt.Fprintf(f, "  sequential pass: establish p50 %.3f ms over %d, release p50 %.3f ms over %d, stats query p50 %.3f ms\n",
			median(r.seqEst), len(r.seqEst), median(r.seqRel), len(r.seqRel), median(r.seqQuery))
	}
	if ch.ops > 0 {
		fmt.Fprintf(f, "  daemon CPU over churn: %v for %d operations\n", ch.cpu, ch.ops)
	}
	for _, e := range r.errs {
		fmt.Fprintln(f, "  FAILED", e)
	}
}

// tailPercentile is the highest of p99, p95 and p90 with at least ten of
// n samples beyond it. Like the open-loop medians, the tail is printed in
// the run report only: on a shared host it does not repeat closely enough
// between runs to serve as a metric (README.md).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p/100*float64(len(s))+0.999999999) - 1
	return s[max(0, min(k, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }
