// Sinks for sweep results: machine-readable CSV and JSON, plus the
// human-readable summary table the bench binaries print. One row/object per
// cell, in the spec's deterministic enumeration order, so two byte-equal
// documents mean two identical sweeps (the determinism test relies on
// this).

#pragma once

#include <string>

#include "run/sweep.hpp"
#include "util/table.hpp"

namespace hcs::run {

/// Header + one line per cell (RFC 4180 quoting via util/csv).
[[nodiscard]] std::string sweep_csv(const SweepResult& result);

/// {"spec": {...}, "cells": [{...}, ...]} with the same fields as the CSV.
[[nodiscard]] std::string sweep_json(const SweepResult& result);

/// Writes the rendering to `path`; false on I/O failure.
bool write_sweep_csv(const SweepResult& result, const std::string& path);
bool write_sweep_json(const SweepResult& result, const std::string& path);

/// Per-cell outcome table (strategy, d, seed, delay, ... , verdicts).
[[nodiscard]] Table sweep_cells_table(const SweepResult& result);

/// Per-strategy aggregate table built from SweepResult::summarize().
[[nodiscard]] Table sweep_summary_table(const SweepResult& result);

}  // namespace hcs::run
