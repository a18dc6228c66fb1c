package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"sassi/internal/faults"
	"sassi/internal/handlers"
	"sassi/internal/obs"
	"sassi/internal/ptxas"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
	"sassi/internal/workloads"
)

// injectApps is the inject workload's fixed subset of Figure 10's apps
// (parboil.bfs is left out: its injection sites would not repeat), with
// the injections per campaign. Each campaign is one job.
var injectApps = []struct {
	app        string
	injections int
}{
	{"parboil.histo", 4},
	{"rodinia.nn", 4},
	{"rodinia.b+tree", 4},
	{"rodinia.kmeans", 4},
}

// campaignSeed is every campaign's fixed injection seed. It is not taken
// from -seed: which sites an injection hits decides whether it hangs, and
// a hang runs to the watchdog, so a different seed per run would swing
// the run's cost by more than any bound could absorb.
const campaignSeed = 2015

var injectWorkload = &workload{
	passesPer10s: 3.7,
	setup: func(r *runner) ([]job, error) {
		cache := sassi.NewCompileCache()
		instOpts := (&handlers.Injector{}).Options()
		instKey, _ := instOpts.CacheKey()
		var jobs []job
		for _, a := range injectApps {
			spec, ok := workloads.Get(a.app)
			if !ok {
				return nil, fmt.Errorf("unknown workload %s", a.app)
			}
			// Fill the cache under the keys Campaign.Run looks up, so the
			// campaigns compile nothing and every program is verified.
			golden, err := cache.Get(spec.CompileKey(ptxas.Options{}), func() (*sass.Program, error) {
				return r.compile(spec)
			})
			if err != nil {
				return nil, err
			}
			if _, err := cache.Get(spec.InstrumentedKey(ptxas.Options{}, instKey), func() (*sass.Program, error) {
				return r.instrument(golden, instOpts)
			}); err != nil {
				return nil, fmt.Errorf("%s: %w", a.app, err)
			}
			ds := spec.DefaultDataset()
			jobs = append(jobs, job{
				name: a.app + "/" + ds, app: a.app, ops: a.injections,
				run: func(r *runner) outcome { return r.campaign(spec, ds, a.injections, cache) },
				reference: func(r *runner) (uint64, error) {
					ctx, err := r.runSpec(spec, golden, ds, sim.KeplerK20(), nil)
					if err != nil {
						return 0, err
					}
					return ctx.TotalKernelCycles, nil
				},
			})
		}
		return jobs, nil
	},
}

// campaign runs one fault-injection campaign. A traced run attaches the
// campaign's own tracer and registry and folds their golden, profiling
// and injection-run spans under the campaign's span.
func (r *runner) campaign(spec *workloads.Spec, ds string, injections int, cache *sassi.CompileCache) outcome {
	_, missesBefore := cache.Stats()
	c := &faults.Campaign{
		Spec: spec, Dataset: ds, Injections: injections, Seed: campaignSeed,
		Config: sim.KeplerK20(), Workers: r.workers, Cache: cache,
	}
	var ot *obs.Tracer
	var offset time.Duration
	if r.tr != nil {
		c.Metrics = obs.NewRegistry()
		offset = time.Since(r.tr.t0)
		ot = obs.NewTracer()
		c.Trace = ot
	}
	sp := r.tr.begin("faults.Campaign.Run")
	res, err := c.Run()
	r.tr.end(sp)
	if r.tr != nil {
		r.lay.runsFailed += c.Metrics.Counter(obs.MFaultsRunsFailed).Value()
		if ferr := r.foldCampaignTrace(ot, offset, sp); ferr != nil && err == nil {
			err = ferr
		}
	}
	if err != nil {
		return outcome{err: err}
	}
	if _, misses := cache.Stats(); misses != missesBefore {
		return outcome{err: fmt.Errorf("campaign compiled %d programs outside set-up", misses-missesBefore)}
	}
	sum := 0
	for _, n := range res.Counts {
		sum += n
	}
	if sum != injections || res.Total != injections {
		return outcome{err: fmt.Errorf("outcomes sum to %d (total %d), want %d", sum, res.Total, injections)}
	}
	return outcome{
		detail:  fmt.Sprintf("outcomes=%v sites=%d", res.Counts, res.SitesTotal),
		hangs:   res.Counts[faults.Hang],
		crashes: res.Counts[faults.Crash],
	}
}

// foldCampaignTrace copies the campaign tracer's golden and profiling
// spans under the campaign span and folds its injection runs, which
// overlap across workers, into one aggregate record.
func (r *runner) foldCampaignTrace(ot *obs.Tracer, offset time.Duration, parent int32) error {
	var buf bytes.Buffer
	if err := ot.WriteJSON(&buf); err != nil {
		return err
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		return err
	}
	at := func(us float64) time.Duration { return offset + time.Duration(us*float64(time.Microsecond)) }
	inj := span{Name: "faults.injection", Parent: parent, Job: r.tr.job}
	var runs [][2]time.Duration
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		s := span{Start: at(ev.Ts), End: at(ev.Ts + ev.Dur), Parent: parent, Job: r.tr.job}
		switch {
		case ev.Pid == obs.PidCampaign:
			runs = append(runs, [2]time.Duration{s.Start, s.End})
			inj.Busy += s.End - s.Start
			inj.Count++
		case strings.HasPrefix(ev.Name, "golden:"):
			s.Name = "faults.golden"
			r.tr.spans = append(r.tr.spans, s)
		case strings.HasPrefix(ev.Name, "profile:"):
			s.Name = "faults.profiling"
			r.tr.spans = append(r.tr.spans, s)
		}
	}
	if len(runs) == 0 {
		return nil
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i][0] < runs[j][0] })
	inj.Start, inj.End = runs[0][0], runs[0][1]
	from := runs[0][0]
	for _, iv := range runs[1:] {
		if iv[0] > inj.End {
			inj.Covered += inj.End - from
			from = iv[0]
		}
		if iv[1] > inj.End {
			inj.End = iv[1]
		}
	}
	inj.Covered += inj.End - from
	r.tr.spans = append(r.tr.spans, inj)
	return nil
}
