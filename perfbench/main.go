// Command perfbench is the SASSI pipeline's benchmark. It runs one of
// three workloads through the program's public functions — native
// (uninstrumented suite sweep), profile (Table 3 profiling studies) and
// inject (Case Study IV fault campaigns) — checks every output, and
// prints each metric by name and unit. The last line of standard output
// is one JSON object: end-to-end metrics with -trace 0, per-layer metrics
// from an in-memory span trace with -trace 1.
//
//	go run . -workload native -seed 1 -seconds 20 -trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/ptx"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// setupRounds is how often a run sets everything up anew, spread over
// its passes; setup_s is the median of the rounds' process CPU time. A
// round is 0.05–0.2 s of mostly one goroutine, so its wall time is at the
// mercy of hypervisor steal: on a shared 2-vCPU host, between two sets of
// ten inject runs the wall median moved by 27% and the CPU median by 15%.
const setupRounds = 21

// hostOrderFault names the workload whose cross-SM global traffic is
// applied in host order, so its modeled cycles and instruction counts
// differ between identical runs. It is exempt from the equality checks;
// its output is still checked against the CPU reference.
const hostOrderFault = "parboil.bfs"

// job is one timed operation of a pass.
type job struct {
	name string
	app  string
	tool string
	ops  int // operations the job attempts (injections for a campaign)
	run  func(r *runner) outcome
	// reference, when set, runs the job's uninstrumented golden program
	// once after the timed phase and returns its modeled cycles. Campaign
	// devices are private, so inject's modeled cycles come from these.
	reference func(r *runner) (uint64, error)
}

// outcome is what one job produced. cycles, warp counts and detail must
// repeat exactly across passes unless the job's app is hostOrderFault.
type outcome struct {
	cycles, warpInstrs, injectedWarp uint64
	detail                           string
	hangs, crashes                   int
	err                              error
}

func (o outcome) signature() string {
	return fmt.Sprintf("cycles=%d warp=%d injected=%d %s", o.cycles, o.warpInstrs, o.injectedWarp, o.detail)
}

// workload describes one benchmark workload.
type workload struct {
	// passesPer10s sets how many whole passes a run makes per ten
	// seconds of -seconds. The pass count is fixed by -seconds alone so
	// both sides of a comparison do the same work and the job-time
	// percentiles rank the same number of samples.
	passesPer10s float64
	setup        func(r *runner) ([]job, error)
	// check runs the checks that compare jobs of one pass with each other;
	// it returns one error slot per job.
	check func(jobs []job, pass []outcome) []error
}

var allWorkloads = map[string]*workload{
	"native":  nativeWorkload,
	"profile": profileWorkload,
	"inject":  injectWorkload,
}

// runner carries one run's settings and its trace.
type runner struct {
	workers int
	tr      *tracer // nil in untraced runs
	lay     layerCounts
}

func main() {
	name := flag.String("workload", "", "workload: native, profile or inject")
	seed := flag.Uint64("seed", 1, "seed for job order")
	seconds := flag.Int("seconds", 20, "run length; sets the number of whole passes")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	spans := flag.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/spans-<workload>-<seed>.json)")
	flag.Parse()
	w, ok := allWorkloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload native|profile|inject -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
	}
	res, err := run(*name, w, *seed, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints. Correct is false when any
// operation failed or failed a check; the command then exits 1.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, w *workload, seed uint64, seconds int, traced bool, spansPath string) (*result, error) {
	workers := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); workers > n {
		workers = n
	}
	r := &runner{workers: workers}
	if traced {
		r.tr = newTracer()
	}

	passes := int(float64(seconds)*w.passesPer10s/10 + 0.5)
	if passes < 1 {
		passes = 1
	}
	order := rand.New(rand.NewSource(int64(seed)))
	outs := make([][]outcome, passes)
	allocs := make([]float64, passes) // MB allocated per pass
	// Wall and CPU milliseconds per job, indexed by pass, then job.
	var jobTimes, jobCPU []float64

	// Set-up: build, compile, verify and instrument every program the
	// timed phase runs, anew each round. The rounds are spread over the
	// run, some before each pass, so that setup_s samples the whole run
	// rather than its first second; the jobs run the programs of the
	// first round.
	var jobs []job
	setups := make([]float64, 0, setupRounds)
	setupCPU := make([]float64, 0, setupRounds)
	var gc gcCounts
	var steal float64 // seconds over the timed passes
	stealOK := true
	for p := 0; p < passes; p++ {
		for len(setups) < setupRounds && len(setups)*passes/setupRounds <= p {
			if r.tr != nil {
				r.tr.job = -1
			}
			runtime.GC()
			t0, c0 := time.Now(), cpuTime()
			js, err := w.setup(r)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			setupCPU = append(setupCPU, (cpuTime() - c0).Seconds())
			if jobs == nil {
				jobs = js
				jobTimes = make([]float64, passes*len(jobs))
				jobCPU = make([]float64, passes*len(jobs))
			}
		}
		runtime.GC()
		idx := order.Perm(len(jobs))
		outs[p] = make([]outcome, len(jobs))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s0, ok := readSteal()
		stealOK = stealOK && ok
		cpu0 := cpuTime()
		t0 := time.Now()
		for _, i := range idx {
			if r.tr != nil {
				r.tr.job = int32(p*len(jobs) + i)
			}
			j0, c0 := time.Now(), cpuTime()
			outs[p][i] = jobs[i].run(r)
			jobTimes[p*len(jobs)+i] = float64(time.Since(j0)) / float64(time.Millisecond)
			jobCPU[p*len(jobs)+i] = float64(cpuTime()-c0) / float64(time.Millisecond)
		}
		wall, cpu := time.Since(t0).Seconds(), (cpuTime() - cpu0).Seconds()
		s1, _ := readSteal()
		steal += s1 - s0
		runtime.ReadMemStats(&after)
		gc.cycles += after.NumGC - before.NumGC
		gc.pauseNs += after.PauseTotalNs - before.PauseTotalNs
		allocs[p] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		fmt.Printf("pass %d: wall=%.3fs cpu=%.3fs alloc=%.1fMB\n", p, wall, cpu, allocs[p])
	}
	if r.tr != nil {
		r.tr.job = -1
	}

	// Checks: every job against its own references, jobs of a pass
	// against each other, and every pass against the first.
	res := &result{Metrics: map[string]metric{}}
	failedJobs := map[string]error{}
	for p := range outs {
		var cross []error
		if w.check != nil {
			cross = w.check(jobs, outs[p])
		}
		for i, o := range outs[p] {
			err := o.err
			if err == nil && cross != nil {
				err = cross[i]
			}
			if err == nil && p > 0 && jobs[i].app != hostOrderFault && o.signature() != outs[0][i].signature() {
				err = fmt.Errorf("pass %d: %s, pass 0: %s", p, o.signature(), outs[0][i].signature())
			}
			res.Attempted += jobs[i].ops
			if err != nil {
				res.Failed += jobs[i].ops
				if _, seen := failedJobs[jobs[i].name]; !seen {
					failedJobs[jobs[i].name] = err
				}
			}
		}
	}
	for _, n := range sortedKeys(failedJobs) {
		fmt.Printf("FAILED %s: %v\n", n, failedJobs[n])
	}
	res.Correct = res.Failed == 0

	cycles := make([]float64, passes)
	if jobs[0].reference != nil {
		// Outside the timed phase and the trace.
		tr := r.tr
		r.tr = nil
		var c uint64
		for _, j := range jobs {
			n, err := j.reference(r)
			if err != nil {
				return nil, fmt.Errorf("%s: golden reference: %w", j.name, err)
			}
			c += n
		}
		r.tr = tr
		for p := range cycles {
			cycles[p] = float64(c)
		}
	} else {
		for p := range outs {
			for _, o := range outs[p] {
				cycles[p] += float64(o.cycles)
			}
		}
	}

	// Each job's median wall and CPU time over the passes.
	jobWall, jobCPUMed := perJobMedian(jobTimes, len(jobs)), perJobMedian(jobCPU, len(jobs))
	for i, j := range jobs {
		fmt.Printf("job %-32s median=%.3fms cpu=%.3fms\n", j.name, jobWall[i], jobCPUMed[i])
	}
	fmt.Printf("host: nproc=%d gomaxprocs=%d workers=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version())
	if stealOK {
		fmt.Printf(" steal_s=%.2f", steal)
	} else {
		fmt.Print(" steal_s=n/a")
	}
	fmt.Println()
	fmt.Printf("run: workload=%s seed=%d passes=%d jobs/pass=%d traced=%v setup_rounds=%d\n",
		name, seed, passes, len(jobs), traced, setupRounds)
	fmt.Printf("setup: wall median=%.4fs cpu median=%.4fs over %d rounds\n", median(setups), median(setupCPU), len(setups))
	// The jobs are deterministic, so their times differ by what each job
	// computes: the tail ranks the jobs, each at its median, and is given
	// only where forty or more jobs make it a tail.
	fmt.Printf("jobs (each at its median over passes): p50=%.3fms over %d jobs", median(jobWall), len(jobWall))
	if len(jobWall) >= 40 {
		pct, tail := tailPercentile(jobWall)
		fmt.Printf(", p%.1f=%.3fms", pct, tail)
	}
	fmt.Println()

	wall, cpu := sum(jobWall)/1e3, sum(jobCPUMed)/1e3
	if r.tr == nil {
		res.Metrics["setup_s"] = metric{median(setupCPU), "s"}
		res.Metrics["wall_s"] = metric{wall, "s"}
		res.Metrics["cpu_s"] = metric{cpu, "s"}
		res.Metrics["job_p50_ms"] = metric{median(jobWall), "ms"}
		res.Metrics["alloc_mb"] = metric{median(allocs), "MB"}
		res.Metrics["modeled_mcycles"] = metric{median(cycles) / 1e6, "Mcycles"}
	} else {
		layerMetrics(r, res.Metrics, passes, outs, wall, gc)
		if err := r.tr.write(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), spansPath)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("metric %-34s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics of a traced run. Set-up
// layers are per set-up round; timed-phase layers are per pass.
func layerMetrics(r *runner, m map[string]metric, passes int, outs [][]outcome, wall float64, gc gcCounts) {
	total, self, count := r.tr.layerTimes()
	ms := func(d time.Duration, per int) float64 { return float64(d) / float64(time.Millisecond) / float64(per) }
	pp := float64(passes)
	m["workloads.build_ms"] = metric{ms(total["workloads.Build"], setupRounds), "ms"}
	m["ptxas.compile_ms"] = metric{ms(total["ptxas.Compile"], setupRounds), "ms"}
	m["ptxas.sass_instrs"] = metric{float64(r.lay.sassInstrs) / setupRounds, "count"}
	m["analysis.verify_ms"] = metric{ms(total["analysis.Verify"], setupRounds), "ms"}
	m["sassi.instrument_ms"] = metric{ms(total["sassi.Instrument"], setupRounds), "ms"}
	m["sassi.injected_instrs"] = metric{float64(r.lay.injectedInstrs) / setupRounds, "count"}

	m["workloads.host_ms"] = metric{ms(self["workloads.Run"], passes), "ms"}
	m["cuda.memcpy_mb"] = metric{float64(r.lay.memcpyBytes) / 1e6 / pp, "MB"}
	m["sim.launches"] = metric{float64(r.lay.launches) / pp, "count"}
	m["sim.launch_ms"] = metric{ms(total["sim.launch"], passes), "ms"}
	m["sim.self_ms"] = metric{ms(self["sim.launch"], passes), "ms"}
	m["sim.warp_instrs"] = metric{float64(r.lay.warpInstrs) / pp, "count"}
	m["sim.injected_warp_instrs"] = metric{float64(r.lay.injectedWarp) / pp, "count"}
	mwips := 0.0
	if s := self["sim.launch"].Seconds(); s > 0 {
		mwips = float64(r.lay.warpInstrs) / s / 1e6
	}
	m["sim.mwips"] = metric{mwips, "Mwarp_instr/s"}
	m["sim.scoreboard_stall_kcycles"] = metric{float64(r.lay.scoreboardStalls) / 1e3 / pp, "kcycles"}
	m["mem.global_transactions"] = metric{float64(r.lay.globalTransaction) / pp, "count"}
	m["mem.l1_hit_rate"] = metric{ratio(r.lay.l1Hits, r.lay.l1Access), "ratio"}
	m["mem.l2_hit_rate"] = metric{ratio(r.lay.l2Hits, r.lay.l2Access), "ratio"}
	m["mem.dram_transactions"] = metric{float64(r.lay.dramTransactions) / pp, "count"}
	fmt.Printf("mem: l1 %d hits / %d accesses, l2 %d hits / %d accesses (whole run)\n",
		r.lay.l1Hits, r.lay.l1Access, r.lay.l2Hits, r.lay.l2Access)

	n := count["handlers.dispatch"]
	m["handlers.dispatches"] = metric{float64(n) / pp, "count"}
	m["handlers.dispatch_ms"] = metric{ms(total["handlers.dispatch"], passes), "ms"}
	m["handlers.dispatch_us"] = metric{mean(total["handlers.dispatch"], n, time.Microsecond), "us"}
	m["handlers.active_lanes"] = metric{ratio(uint64(r.tr.activeLanes()), uint64(n)), "lanes"}

	for _, l := range []struct{ metric, span string }{
		{"faults.campaign_ms", "faults.Campaign.Run"},
		{"faults.golden_ms", "faults.golden"},
		{"faults.profiling_ms", "faults.profiling"},
		{"faults.injection_ms", "faults.injection"},
	} {
		m[l.metric] = metric{mean(total[l.span], count[l.span], time.Millisecond), "ms"}
	}
	m["faults.runs_failed"] = metric{float64(r.lay.runsFailed) / pp, "count"}
	var hangs, crashes int
	for _, pass := range outs {
		for _, o := range pass {
			hangs += o.hangs
			crashes += o.crashes
		}
	}
	m["faults.hang_runs"] = metric{float64(hangs) / pp, "count"}
	m["faults.crash_runs"] = metric{float64(crashes) / pp, "count"}

	m["runtime.gc_cycles"] = metric{float64(gc.cycles) / pp, "count"}
	m["runtime.gc_pause_ms"] = metric{float64(gc.pauseNs) / 1e6 / pp, "ms"}
	m["trace.wall_s"] = metric{wall, "s"}
}

// gcCounts sums the Go runtime's collections over the timed passes.
type gcCounts struct {
	cycles  uint32
	pauseNs uint64
}

// perJobMedian returns each job's median over the passes of xs, which is
// indexed by pass, then job. A pass's figures are these summed: on a
// shared host, slow phases stretch every job they overlap, in CPU time as
// well as wall time, and a median per job sets them aside at the grain
// of a job rather than of a whole pass.
func perJobMedian(xs []float64, njobs int) []float64 {
	meds := make([]float64, njobs)
	col := make([]float64, 0, len(xs)/njobs)
	for i := range meds {
		col = col[:0]
		for k := i; k < len(xs); k += njobs {
			col = append(col, xs[k])
		}
		meds[i] = median(col)
	}
	return meds
}

// mean is d/n in the given unit, 0 when n is 0.
func mean(d time.Duration, n int64, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// compile builds, compiles and verifies one workload's program, with a
// span around each layer. The verifier runs on its own (not through
// ptxas.Options.Verify) so its time is a layer of its own; outside
// `go test` the verifier is off unless asked for, so it is asked for here.
func (r *runner) compile(spec *workloads.Spec) (*sass.Program, error) {
	var prog *sass.Program
	var m *ptx.Module
	var err error
	sp := r.tr.begin("workloads.Build")
	if spec.BuildProgram != nil {
		prog, err = spec.BuildProgram()
	} else {
		m, err = spec.Build()
	}
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", spec.Name, err)
	}
	if m != nil {
		sp = r.tr.begin("ptxas.Compile")
		prog, err = ptxas.Compile(m, ptxas.Options{Verify: analysis.VerifyOff})
		r.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	sp = r.tr.begin("analysis.Verify")
	diags := analysis.Verify(prog)
	r.tr.end(sp)
	if analysis.HasErrors(diags) {
		return nil, fmt.Errorf("%s: %w", spec.Name, &analysis.VerifyError{Diags: diags})
	}
	if spec.PostCompile != nil {
		if err := spec.PostCompile(prog); err != nil {
			return nil, fmt.Errorf("%s: post-compile: %w", spec.Name, err)
		}
	}
	if r.tr != nil {
		r.lay.sassInstrs += countInstrs(prog)
	}
	return prog, nil
}

func countInstrs(p *sass.Program) uint64 {
	var n uint64
	for _, k := range p.Kernels {
		n += uint64(len(k.Instrs))
	}
	return n
}

// runSpec runs a workload on a fresh context and checks its output
// against the workload's CPU reference. attach, when set, installs a
// handler runtime before the tracer wraps its dispatcher.
func (r *runner) runSpec(spec *workloads.Spec, prog *sass.Program, dataset string, cfg sim.Config,
	attach func(ctx *cuda.Context) error) (*cuda.Context, error) {
	ctx := cuda.NewContext(cfg)
	if attach != nil {
		if err := attach(ctx); err != nil {
			return nil, err
		}
	}
	r.observe(ctx)
	sp := r.tr.begin("workloads.Run")
	res, err := spec.Run(ctx, prog, dataset)
	r.tr.end(sp)
	r.collectMem(ctx)
	if err != nil {
		return nil, err
	}
	if res.VerifyErr != nil {
		return nil, fmt.Errorf("output differs from CPU reference: %w", res.VerifyErr)
	}
	return ctx, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
