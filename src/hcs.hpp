// The public umbrella header: everything an application needs to run the
// paper's strategies and measure them.
//
//   #include "hcs.hpp"
//
//   hcs::Session session({.dimension = 6, .options = {.trace = true}});
//   hcs::core::SimOutcome outcome = session.run("CLEAN");
//
// Surface map (each group's headers stay individually includable; this
// header is convenience, not a wall):
//
//   hcs::graph      -- adjacency-list graphs, builders, traversal, DOT
//   hcs::hypercube  -- H_d structure, broadcast trees, routing, symmetry
//   hcs::sim        -- the event engine, the macro executor, network
//                      state, traces, RunOptions
//   hcs::core       -- the four paper strategies + baselines, the strategy
//                      registry, closed-form cost formulas, Session
//   hcs::run        -- parameter sweeps across a worker pool + CSV/JSON IO
//   hcs::ckpt       -- sealed blobs and the snapshot store behind
//                      resumable fuzz campaigns, plus outcome
//                      serialization; runs and sweeps are not
//                      checkpointed -- rerunning one reproduces it
//   hcs::fault      -- fault injection specs and recovery policies
//   hcs::intruder   -- adversarial intruder models for capture checks
//   hcs::obs        -- counters/gauges/histograms/spans + trace exporters
//   hcs::serve      -- the hcsd daemon surface: CellKey-addressed result
//                      cache, request coalescing, line-JSON TCP protocol
//
// Entry points, preferred first:
//   hcs::Session               one configured run, any registered strategy
//   hcs::run::SweepRunner      a grid of runs across worker threads
//   hcs::core::run_strategy_sim  historical one-call harness (forwards to
//                                Session; string-keyed only)

#pragma once

#include "ckpt/blob.hpp"
#include "ckpt/outcome_io.hpp"
#include "ckpt/store.hpp"
#include "core/audit.hpp"
#include "core/audit_timeline.hpp"
#include "core/baselines.hpp"
#include "core/cell_key.hpp"
#include "core/formulas.hpp"
#include "core/lower_bounds.hpp"
#include "core/optimal.hpp"
#include "core/plan.hpp"
#include "core/session.hpp"
#include "core/strategy.hpp"
#include "core/strategy_registry.hpp"
#include "fault/fault.hpp"
#include "graph/builders.hpp"
#include "graph/dot.hpp"
#include "graph/graph.hpp"
#include "graph/spanning_tree.hpp"
#include "graph/traversal.hpp"
#include "hypercube/broadcast_tree.hpp"
#include "hypercube/hypercube.hpp"
#include "hypercube/properties.hpp"
#include "intruder/intruder.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "run/sweep.hpp"
#include "run/sweep_io.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/options.hpp"
#include "sim/shard.hpp"
#include "sim/trace.hpp"
