// Sweep-level checkpointing: the serialization glue between SweepRunner
// and the hcs::ckpt snapshot store (docs/CHECKPOINT.md).
//
// A sweep snapshot persists the *completed cells* of a grid -- index plus
// full SimOutcome -- keyed by a fingerprint of the spec. Resume recomputes
// each cell's coordinates from the spec (the enumeration is a pure
// function of it), fills in the stored outcomes, and re-runs only the
// missing indices; because every cell is independently deterministic, the
// resumed sweep's CSV/JSON output is byte-identical to an uninterrupted
// run's. Single runs are not checkpointed (a run is a pure function of its
// CellKey; resuming one means running it again), so this is the layer
// that makes long work resumable, for cells of either executor.

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/cell_key.hpp"
#include "run/sweep.hpp"
#include "util/json.hpp"

namespace hcs::run {

/// The CellKey of the grid point a spec enumerates at `index`: exactly the
/// identity of the run run_sweep_cell would execute there (requested
/// engine, spec-level recovery/max_agent_steps, canonical strategy
/// casing). This is the same key hcsd's cache and the fuzz corpus use, so
/// a sweep cell, a served request and a fuzz cell with equal coordinates
/// hash equal.
[[nodiscard]] CellKey sweep_cell_key(const SweepSpec& spec,
                                     std::size_t index);

/// Identity of a sweep: a hash over the CellKey hash of every grid point
/// (in enumeration order). Two specs fingerprint equal iff they enumerate
/// the same runs in the same order. Snapshots with a different fingerprint
/// (or cell count) belong to a different grid and are ignored on resume.
[[nodiscard]] std::string sweep_spec_fingerprint(const SweepSpec& spec);

/// The snapshot document: {"kind":"sweep","version":1,"fingerprint":...,
/// "cells":N,"done":[{"index":i,"outcome":{...}},...]} with `done` in
/// ascending index order.
[[nodiscard]] Json sweep_snapshot_json(
    const SweepSpec& spec, const std::string& fingerprint,
    const std::map<std::size_t, core::SimOutcome>& done);

/// Validates `doc` against this spec (kind, fingerprint, cell count) and
/// extracts the completed outcomes. Returns false with a diagnostic when
/// the document is not a usable snapshot of this sweep; `out` is then
/// left empty.
[[nodiscard]] bool parse_sweep_snapshot(
    const Json& doc, const std::string& fingerprint, std::size_t num_cells,
    std::map<std::size_t, core::SimOutcome>* out, std::string* error);

}  // namespace hcs::run
