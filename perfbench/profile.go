package main

import (
	"fmt"

	"sassi/internal/analysis"
	"sassi/internal/cuda"
	"sassi/internal/handlers"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// profileApps is the profile workload's fixed subset of the suite, with
// the dataset each runs. parboil.sgemm is the paper's running example;
// parboil.bfs is the host-order fault, on its smallest graph; the rest
// span branch-, memory- and value-heavy kernels while keeping a pass
// short enough for several passes per run.
var profileApps = []struct{ app, dataset string }{
	{"parboil.sgemm", "small"},
	{"parboil.bfs", "UT"},
	{"parboil.histo", "small"},
	{"rodinia.kmeans", "small"},
	{"rodinia.nn", "small"},
}

// profileTool is one of the paper's Table 3 profiling studies, run with
// its paper-faithful collective handler (Figures 4, 6 and 9). options is
// the instrumentation it applies; attach builds the handler for a context
// and returns a reader that collects the tool's results after the run, as
// a user of the tool would. The baseline "none" has neither.
type profileTool struct {
	name    string
	options func() sassi.Options
	attach  func(ctx *cuda.Context) (*sassi.Handler, func(ctx *cuda.Context) error)
}

var profileTools = []profileTool{
	{name: "none"},
	{
		name:    "branch",
		options: (&handlers.BranchProfiler{}).Options,
		attach: func(ctx *cuda.Context) (*sassi.Handler, func(*cuda.Context) error) {
			p := handlers.NewBranchProfiler(ctx)
			return p.Handler(), func(ctx *cuda.Context) error {
				rows, err := p.Results()
				if err != nil {
					return err
				}
				var execs uint64
				for _, row := range rows {
					execs += row.Total
				}
				if execs != ctx.TotalHandlerCalls {
					return fmt.Errorf("branch profiler counted %d executions, simulator %d handler calls", execs, ctx.TotalHandlerCalls)
				}
				return nil
			}
		},
	},
	{
		name:    "memdiv",
		options: (&handlers.MemDivProfiler{}).Options,
		attach: func(ctx *cuda.Context) (*sassi.Handler, func(*cuda.Context) error) {
			p := handlers.NewMemDivProfiler(ctx)
			return p.Handler(), func(*cuda.Context) error { _, err := p.Matrix(); return err }
		},
	},
	{
		name:    "valueprof",
		options: (&handlers.ValueProfiler{}).Options,
		attach: func(ctx *cuda.Context) (*sassi.Handler, func(*cuda.Context) error) {
			p := handlers.NewValueProfiler(ctx)
			return p.Handler(), func(*cuda.Context) error { _, err := p.Summarize(); return err }
		},
	},
}

var profileWorkload = &workload{
	passesPer10s: 1.7,
	setup: func(r *runner) ([]job, error) {
		var jobs []job
		for _, a := range profileApps {
			spec, ok := workloads.Get(a.app)
			if !ok || !spec.HasDataset(a.dataset) {
				return nil, fmt.Errorf("unknown workload %s/%s", a.app, a.dataset)
			}
			base, err := r.compile(spec)
			if err != nil {
				return nil, err
			}
			for _, tool := range profileTools {
				prog := base
				if tool.options != nil {
					if prog, err = r.instrument(base, tool.options()); err != nil {
						return nil, fmt.Errorf("%s/%s: %w", a.app, tool.name, err)
					}
				}
				jobs = append(jobs, job{
					name: a.app + "/" + a.dataset + "/" + tool.name, app: a.app, tool: tool.name, ops: 1,
					run: func(r *runner) outcome { return r.profileJob(spec, prog, a.dataset, tool) },
				})
			}
		}
		return jobs, nil
	},
	check: checkTransparency,
}

// instrument applies opts to a copy of base and verifies the result: the
// instrumentation-safety check against the original, then the verifier.
func (r *runner) instrument(base *sass.Program, opts sassi.Options) (*sass.Program, error) {
	prog := sass.NewProgram()
	for _, k := range base.Kernels {
		prog.AddKernel(k.Clone())
	}
	for sym, id := range base.Handlers {
		prog.Handlers[sym] = id
	}
	opts.Verify = analysis.VerifyOff
	sp := r.tr.begin("sassi.Instrument")
	err := sassi.Instrument(prog, opts)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.tr.begin("analysis.Verify")
	diags := analysis.VerifyInstrumentedProgram(base, prog, sassi.Spec(), nil)
	diags = append(diags, analysis.Verify(prog)...)
	r.tr.end(sp)
	if analysis.HasErrors(diags) {
		return nil, &analysis.VerifyError{Diags: diags}
	}
	if r.tr != nil {
		r.lay.injectedInstrs += countInstrs(prog) - countInstrs(base)
	}
	return prog, nil
}

// profileJob runs one app under one tool and reads the tool's results
// back.
func (r *runner) profileJob(spec *workloads.Spec, prog *sass.Program, dataset string, tool profileTool) outcome {
	if tool.attach == nil {
		ctx, err := r.runSpec(spec, prog, dataset, sim.KeplerK10(), nil)
		return contextOutcome(ctx, err)
	}
	var read func(ctx *cuda.Context) error
	attach := func(ctx *cuda.Context) error {
		var h *sassi.Handler
		h, read = tool.attach(ctx)
		rt := sassi.NewRuntime(prog)
		if err := rt.Register(h); err != nil {
			return err
		}
		rt.Attach(ctx.Device())
		return nil
	}
	ctx, err := r.runSpec(spec, prog, dataset, sim.KeplerK10(), attach)
	if err == nil {
		err = read(ctx)
	}
	return contextOutcome(ctx, err)
}

// checkTransparency holds each instrumented run of a pass to its app's
// baseline: the original instructions execute exactly as without
// instrumentation, and instrumentation never makes the kernels faster.
func checkTransparency(jobs []job, pass []outcome) []error {
	base := map[string]outcome{}
	for i, j := range jobs {
		if j.tool == "none" {
			base[j.app] = pass[i]
		}
	}
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		b, o := base[j.app], pass[i]
		if j.tool == "none" || o.err != nil || b.err != nil {
			continue
		}
		if o.cycles < b.cycles {
			errs[i] = fmt.Errorf("instrumented cycles %d below baseline %d (K < 1)", o.cycles, b.cycles)
		} else if j.app != hostOrderFault && o.warpInstrs-o.injectedWarp != b.warpInstrs {
			errs[i] = fmt.Errorf("non-injected warp instructions %d != baseline %d", o.warpInstrs-o.injectedWarp, b.warpInstrs)
		}
	}
	return errs
}
