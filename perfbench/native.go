package main

import (
	"sassi/internal/cuda"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// nativeWorkload runs every suite workload on every dataset it accepts,
// uninstrumented, each job on a fresh context. Warp issue and the memory
// model do nearly all the work; no handler runs. The datasets range from
// working sets inside the modelled L1 to ones past L2.
var nativeWorkload = &workload{
	passesPer10s: 7,
	setup: func(r *runner) ([]job, error) {
		var jobs []job
		for _, spec := range workloads.All() {
			prog, err := r.compile(spec)
			if err != nil {
				return nil, err
			}
			for _, ds := range spec.Datasets {
				jobs = append(jobs, job{
					name: spec.Name + "/" + ds, app: spec.Name, ops: 1,
					run: func(r *runner) outcome {
						ctx, err := r.runSpec(spec, prog, ds, sim.KeplerK10(), nil)
						return contextOutcome(ctx, err)
					},
				})
			}
		}
		return jobs, nil
	},
}

func contextOutcome(ctx *cuda.Context, err error) outcome {
	if err != nil {
		return outcome{err: err}
	}
	return outcome{cycles: ctx.TotalKernelCycles, warpInstrs: ctx.TotalWarpInstrs, injectedWarp: ctx.TotalInjectedWarpInstrs}
}
