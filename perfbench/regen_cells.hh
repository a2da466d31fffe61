/**
 * @file
 * The cells of a bench_all sweep, collected from the bench modules
 * without running the bench driver.
 */

#ifndef CBSIM_PERFBENCH_REGEN_CELLS_HH
#define CBSIM_PERFBENCH_REGEN_CELLS_HH

#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace cbsim::perfbench {

/** One registered bench cell and the module (artifact) it belongs to. */
struct RegenCell
{
    std::string module;
    SweepJob job;
};

/** Sweep-level sizing of one bench_all tier. */
struct RegenSizing
{
    unsigned cores;
    double scale;
    unsigned microIters;
};

/**
 * Register every bench module in bench_all's order at the
 * `bench_all --quick` sizing (or `--smoke` when @p smoke) and return
 * the profile and micro cells in submission order. Custom cells are
 * left out: their configuration is opaque code, not a simulated
 * configuration. Call once per process.
 */
std::vector<RegenCell> regenCells(bool smoke);

/** The sizing regenCells() applied. */
RegenSizing regenSizing(bool smoke);

} // namespace cbsim::perfbench

#endif // CBSIM_PERFBENCH_REGEN_CELLS_HH
