package main

import (
	zeroinf "repro"
	"repro/internal/core"
	"repro/internal/zero"
)

// The traced run needs the engines to call the model through tracedModel,
// and the root package's NewEngine takes only a *GPT. This file is the one
// place the benchmark builds engines from the internal constructors, which
// accept any zero.Model; it maps EngineConfig the way NewEngine does for the
// two stage-3 engines the workloads use.

func newTracedEngine(cfg zeroinf.EngineConfig, c *zeroinf.Comm, m zero.Model) (engine, error) {
	be, err := zeroinf.BackendByName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	if cfg.Infinity {
		e, err := core.NewInfinityEngine(core.Config{
			Params:             cfg.Params,
			Optimizer:          cfg.Optimizer,
			OffloadActivations: cfg.OffloadActivations,
			PrefetchDepth:      cfg.PrefetchDepth,
			Overlap:            cfg.Overlap,
			Adam:               cfg.Adam,
			LossScale:          cfg.LossScale,
			DynamicLossScale:   cfg.DynamicLossScale,
			Seed:               cfg.Seed,
			ClipNorm:           cfg.ClipNorm,
			NVMeDir:            cfg.NVMeDir,
			Backend:            be,
			Partition:          cfg.Partition,
			Topology:           cfg.Topology,
		}, c, m)
		if err != nil {
			return nil, err
		}
		return e, nil
	}
	e, err := zero.NewZ3Engine(zero.Config{
		Stage:            zero.Stage3,
		Adam:             cfg.Adam,
		LossScale:        cfg.LossScale,
		DynamicLossScale: cfg.DynamicLossScale,
		Seed:             cfg.Seed,
		ClipNorm:         cfg.ClipNorm,
		PrefetchDepth:    cfg.PrefetchDepth,
		Overlap:          cfg.Overlap,
		Backend:          be,
		Partition:        cfg.Partition,
		Topology:         cfg.Topology,
	}, c, m)
	if err != nil {
		return nil, err
	}
	return tracedZ3{e}, nil
}

// tracedZ3 gives the internal stage-3 engine the Step signature and the
// Stats shape the root package's adapter gives it.
type tracedZ3 struct{ *zero.Z3Engine }

func (e tracedZ3) Step(tok, tgt []int, batch int) (zeroinf.StepResult, error) {
	return e.Z3Engine.Step(tok, tgt, batch), nil
}

func (e tracedZ3) Close() {}

func (e tracedZ3) Stats() zeroinf.InfinityStats {
	return zeroinf.InfinityStats{
		Gathers:            e.Gathers,
		OnDemandGathers:    e.OnDemandGathers,
		CommPrefetchIssued: e.PrefetchIssued,
		CommPrefetchHits:   e.PrefetchHits,
		AsyncReduces:       e.AsyncReduces,
		MaxLiveParamBytes:  e.MaxLiveParamBytes(),
		CommTraffic:        e.CommTraffic(),
	}
}
