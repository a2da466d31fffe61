/**
 * @file
 * Stands in for the bench driver (bench/bench_main.cc) behind the
 * bench_common.hh registration API, so the bench modules compiled into
 * the benchmark hand over their cells instead of running them.
 */

#include "regen_cells.hh"

#include <algorithm>

#include "bench_common.hh"
#include "sim/log.hh"

namespace cbsim::bench {

namespace {

std::vector<BenchModule>&
modules()
{
    static std::vector<BenchModule> m;
    return m;
}

std::vector<perfbench::RegenCell>&
registered()
{
    static std::vector<perfbench::RegenCell> cells;
    return cells;
}

std::string&
currentModule()
{
    static std::string name;
    return name;
}

} // namespace

BenchMode&
mode()
{
    static BenchMode m;
    return m;
}

const std::vector<Profile>&
figSuite()
{
    static const std::vector<Profile> quick = quickSuite();
    return mode().smoke ? quick : benchmarkSuite();
}

BenchRegistrar::BenchRegistrar(BenchModule m)
{
    modules().push_back(std::move(m));
}

void
registerJob(SweepJob job)
{
    registered().push_back({currentModule(), std::move(job)});
}

void
registerCell(const std::string& key, std::function<ExperimentResult()> fn)
{
    registerJob(SweepJob::custom(key, std::move(fn)));
}

const ExperimentResult&
result(const std::string& key)
{
    fatal("perfbench prints no bench tables (asked for ", key, ")");
}

} // namespace cbsim::bench

namespace cbsim::perfbench {

RegenSizing
regenSizing(bool smoke)
{
    // bench_main.cc's --smoke and --quick settings.
    return smoke ? RegenSizing{4, 0.1, 2} : RegenSizing{16, 0.25, 6};
}

std::vector<RegenCell>
regenCells(bool smoke)
{
    auto& m = bench::mode();
    const RegenSizing sizing = regenSizing(smoke);
    m.smoke = smoke;
    m.cores = sizing.cores;
    m.scale = sizing.scale;
    m.microIters = sizing.microIters;

    auto mods = bench::modules();
    std::stable_sort(mods.begin(), mods.end(),
                     [](const bench::BenchModule& a,
                        const bench::BenchModule& b) {
                         return a.order < b.order;
                     });
    for (const auto& mod : mods) {
        bench::currentModule() = mod.name;
        mod.registerCells();
    }

    std::vector<RegenCell> cells;
    for (auto& cell : bench::registered())
        if (cell.job.kind != JobKind::Custom)
            cells.push_back(std::move(cell));
    bench::registered().clear();
    return cells;
}

} // namespace cbsim::perfbench
