/**
 * @file
 * The aliasing-3c grid, shared with the traced mode's aliasing probe.
 */

#pragma once

#include <vector>

#include "aliasing/index_function.hh"
#include "aliasing/three_c.hh"
#include "common.hh"

namespace perfbench
{

/**
 * One measureThreeCsMulti call per entry: {gshare, gselect} at
 * 4 and 12 history bits, 2^10..2^16-entry tables.
 */
std::vector<std::vector<bpred::IndexFunction>> threeCsGrid();

/** Fold @p results (exact digits) into @p hash. */
u64 threeCsDigest(const std::vector<bpred::ThreeCsResult> &results,
                  u64 hash);

/**
 * Run the grid over every trace; returns records x index functions,
 * the results' digest in @p digest and, when @p call_seconds is set,
 * the time of each measureThreeCsMulti call.
 */
double threeCsPass(const std::vector<bpred::Trace> &traces, u64 &digest,
                   std::vector<double> *call_seconds = nullptr);

} // namespace perfbench
