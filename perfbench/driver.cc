/**
 * @file
 * Host-performance benchmark driver for cbsim (see README.md).
 *
 * One single-threaded process runs one named workload by calling the
 * simulator's layers through their public functions and timing each
 * call from outside. An untraced run repeats passes over the workload
 * until its time budget is spent and reports the end-to-end metrics as
 * medians over passes. A traced run repeats rounds of an untraced
 * pass, a traced pass (which keeps a span per layer call in memory) and
 * an untraced pass with contention attribution flipped, and reports the
 * per-layer ledger. The last line of standard output is the result
 * object; the exit code is non-zero when any cell failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/journal.hh"
#include "harness/json.hh"
#include "harness/result_codec.hh"
#include "harness/result_sink.hh"
#include "harness/sweep.hh"
#include "host_speed.hh"
#include "regen_cells.hh"
#include "report/json_value.hh"
#include "workload/suite.hh"

extern char** environ;

namespace cbsim::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Deterministic simulated counts, summed over a pass's cells. */
constexpr const char* kCountNames[] = {
    "sim.events",         "sim.cycles",
    "core.instructions",  "workload.static_insts",
    "core.stall_cycles",  "core.cb_blocked_cycles",
    "noc.packets",        "noc.flit_hops",
    "l1.accesses",        "llc.accesses",
    "llc.sync_accesses",  "mesi.invalidations",
    "mem.reads",          "callback.dir_accesses",
    "callback.wakeups",   "callback.dir_evictions",
};
constexpr std::size_t kNumCounts = std::size(kCountNames);
using Counts = std::array<std::uint64_t, kNumCounts>;

std::size_t
countIndex(const std::string& name)
{
    for (std::size_t i = 0; i < kNumCounts; ++i)
        if (name == kCountNames[i])
            return i;
    throw std::logic_error("unknown count " + name);
}

Counts
countsOf(const ExperimentResult& r)
{
    std::uint64_t static_insts = 0;
    for (const auto& p : r.workload.programs)
        static_insts += p.size();
    const RunResult& x = r.run;
    return {x.events,        x.cycles,         x.instructions,
            static_insts,    x.stallCycles,    x.cbBlockedCycles,
            x.packets,       x.flitHops,       x.l1Accesses,
            x.llcAccesses,   x.llcSyncAccesses, x.invalidationsSent,
            x.memReads,      x.cbdirAccesses,  x.cbWakeups,
            x.cbdirEvictions};
}

std::uint64_t
fnv1a(std::uint64_t h, const void* data, std::size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/** Digest of every serialized scalar of a run. */
std::uint64_t
digestOf(const RunResult& r)
{
    std::uint64_t h = kFnvBasis;
    for (const auto& [name, value] : r.scalarFields()) {
        h = fnv1a(h, name, std::strlen(name) + 1);
        h = fnv1a(h, &value, sizeof(value));
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** One cell executed once. */
struct CellRun
{
    bool ok = false;
    std::string error;
    double wallMs = 0.0; ///< host wall of the whole cell
    double loopMs = 0.0; ///< event-loop window (RunResult::simWallMs)
    std::uint64_t digest = 0;
    Counts counts{};
    std::string identity; ///< simulated configuration (cells_distinct)
    std::size_t nextSample = 0; ///< HostSpeed sample taken after the cell
    double hostScale = 1.0;     ///< HostSpeed::localScale() of the cell
};

/**
 * In-memory span log of one traced pass, written out as a Chrome
 * trace-event file when the run ends.
 */
class Spans
{
  public:
    void
    add(const char* name, Clock::time_point a, Clock::time_point b,
        long cell = -1)
    {
        spans_.push_back({name, a, b, cell});
    }

    double
    totalMs(const std::string& name) const
    {
        double total = 0.0;
        for (const auto& s : spans_)
            if (name == s.name)
                total += msBetween(s.a, s.b);
        return total;
    }

    void
    writeChromeTrace(const std::string& path) const
    {
        if (spans_.empty())
            return;
        const Clock::time_point origin = spans_.front().a;
        std::ofstream os(path, std::ios::trunc);
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            const double ts = msBetween(origin, s.a) * 1e3;
            const double dur = msBetween(s.a, s.b) * 1e3;
            os << (i ? ",\n" : "") << "{\"name\": "
               << JsonWriter::quote(s.name)
               << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
               << JsonWriter::number(ts)
               << ", \"dur\": " << JsonWriter::number(dur)
               << ", \"args\": {\"cell\": " << s.cell << "}}";
        }
        os << "\n]}\n";
    }

  private:
    struct Span
    {
        const char* name;
        Clock::time_point a, b;
        long cell;
    };
    std::vector<Span> spans_;
};

/** Everything one pass over a workload produced. */
struct Pass
{
    double wallS = 0.0;
    std::vector<CellRun> cells;
    std::unique_ptr<Spans> spans; ///< traced passes only
    double harnessWriteMs = 0.0;  ///< journal appends + artifact writes
    double reportParseMs = 0.0;   ///< parsing the artifacts back
    double artifactMb = 0.0;
    double hostScale = 1.0; ///< HostSpeed::scale() of this pass

    double
    loopMs() const
    {
        double total = 0.0;
        for (const auto& c : cells)
            total += c.loopMs;
        return total;
    }

    double
    cellMs() const
    {
        double total = 0.0;
        for (const auto& c : cells)
            total += c.wallMs;
        return total;
    }

    Counts
    counts() const
    {
        Counts total{};
        for (const auto& c : cells)
            for (std::size_t i = 0; i < kNumCounts; ++i)
                total[i] += c.counts[i];
        return total;
    }
};

/** Fill @p c from a finished experiment. */
void
record(CellRun& c, const ExperimentResult& res)
{
    c.ok = true;
    c.loopMs = res.run.simWallMs;
    c.digest = digestOf(res.run);
    c.counts = countsOf(res);
}

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Contention attribution setting the workload measures with. */
    virtual bool attribution() const { return false; }

    /**
     * Run every cell once, sampling @p speed between cells; @p spans is
     * non-null for a traced pass.
     */
    virtual Pass run(Spans* spans, HostSpeed& speed) = 0;
};

/** One pass over @p n cells, run in order by @p run_cell. */
template <typename F>
Pass
runInOrder(std::size_t n, HostSpeed& speed, F run_cell)
{
    Pass pass;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        pass.cells.push_back(run_cell(i));
        pass.cells.back().nextSample = speed.samples();
        speed.maybeSample();
    }
    pass.wallS = msBetween(t0, Clock::now()) / 1e3;
    return pass;
}

constexpr Technique kAppsTechniques[] = {
    Technique::Invalidation,
    Technique::BackOff10,
    Technique::CbAll,
    Technique::CbOne,
};

/**
 * apps64: the quick suite under the four techniques of
 * bench_perf_kernel --full, at paper size. Each cell replays
 * runExperiment() one layer call at a time so that program build, chip
 * construction, the run and teardown are timed separately.
 */
class Apps64 : public Workload
{
  public:
    Apps64(bool smoke, std::uint64_t seed) : cores_(smoke ? 4 : 64)
    {
        const double scale = smoke ? 0.1 : 1.0;
        for (const Profile& p : quickSuite()) {
            Profile sp = scaled(p, scale);
            sp.seed ^= seed;
            for (const Technique t : kAppsTechniques)
                cells_.push_back(
                    {p.name + "/" + techniqueName(t), sp, t});
        }
    }

    Pass
    run(Spans* spans, HostSpeed& speed) override
    {
        return runInOrder(cells_.size(), speed, [&](std::size_t i) {
            return runCell(i, spans);
        });
    }

  private:
    struct Cell
    {
        std::string key;
        Profile profile;
        Technique technique;
    };

    CellRun
    runCell(std::size_t i, Spans* spans) const
    {
        const Cell& cell = cells_[i];
        CellRun c;
        c.identity = cell.key;
        const auto t0 = Clock::now();
        auto t1 = t0, t2 = t0, t3 = t0;
        try {
            const ChipConfig cfg =
                ChipConfig::forTechnique(cell.technique, cores_);
            const SyncChoice choice = SyncChoice::scalable();
            WorkloadBuild w = buildWorkload(
                cell.profile, cores_, syncFlavorFor(cell.technique),
                choice.lock, choice.barrier);
            t1 = Clock::now();
            auto chip = std::make_unique<Chip>(cfg);
            w.layout.apply(chip->dataStore());
            for (CoreId t = 0; t < cores_; ++t)
                chip->setProgram(t, w.programs[t]);
            t2 = Clock::now();
            const bool check = cell.profile.lockedSharedData &&
                               cell.profile.lockAcqPerPhase > 0;
            ExperimentResult res =
                finishExperiment(*chip, std::move(w), check);
            t3 = Clock::now();
            record(c, res);
            chip.reset();
            res = ExperimentResult();
        } catch (const std::exception& e) {
            c.ok = false;
            c.error = e.what();
        }
        const auto t4 = Clock::now();
        c.wallMs = msBetween(t0, t4);
        if (spans != nullptr && c.ok) {
            spans->add("cell", t0, t4, static_cast<long>(i));
            spans->add("workload.build", t0, t1, static_cast<long>(i));
            spans->add("system.construct", t1, t2, static_cast<long>(i));
            spans->add("sim.run", t2, t3, static_cast<long>(i));
            spans->add("system.teardown", t3, t4, static_cast<long>(i));
        }
        return c;
    }

    unsigned cores_;
    std::vector<Cell> cells_;
};

constexpr SyncMicro kMicros[] = {
    SyncMicro::TtasLock,    SyncMicro::ClhLock,    SyncMicro::SrBarrier,
    SyncMicro::TreeBarrier, SyncMicro::SignalWait,
};

/**
 * sync64: Fig. 20 at paper size, every sync construct under every
 * technique through runSyncMicro(). The call builds its own programs
 * and chip, so a traced pass times chip construction and teardown on a
 * probe chip of the same configuration, loaded with the same programs,
 * after each cell.
 */
class Sync64 : public Workload
{
  public:
    explicit Sync64(bool smoke)
        : cores_(smoke ? 4 : 64), iterations_(smoke ? 2 : 20)
    {
        for (const SyncMicro m : kMicros)
            for (const Technique t : allTechniques)
                cells_.push_back({m, t});
    }

    Pass
    run(Spans* spans, HostSpeed& speed) override
    {
        return runInOrder(cells_.size(), speed, [&](std::size_t i) {
            return runCell(i, spans);
        });
    }

  private:
    struct Cell
    {
        SyncMicro micro;
        Technique technique;
    };

    CellRun
    runCell(std::size_t i, Spans* spans) const
    {
        const Cell& cell = cells_[i];
        CellRun c;
        c.identity = std::string(syncMicroName(cell.micro)) + "/" +
                     techniqueName(cell.technique);
        const auto t0 = Clock::now();
        auto t1 = t0, t2 = t0;
        try {
            ExperimentResult res = runSyncMicro(
                cell.micro, cell.technique, cores_, iterations_);
            t1 = Clock::now();
            record(c, res);
            if (spans != nullptr)
                probe(cell.technique, res.workload, *spans,
                      static_cast<long>(i));
            t2 = Clock::now();
            res = ExperimentResult();
        } catch (const std::exception& e) {
            c.ok = false;
            c.error = e.what();
            t1 = t2 = Clock::now();
        }
        const auto t3 = Clock::now();
        c.wallMs = msBetween(t0, t1) + msBetween(t2, t3);
        if (spans != nullptr && c.ok) {
            spans->add("cell", t0, t1, static_cast<long>(i));
            spans->add("cell", t2, t3, static_cast<long>(i));
        }
        return c;
    }

    /** Construct and tear down a chip exactly as runSyncMicro does. */
    void
    probe(Technique technique, const WorkloadBuild& w, Spans& spans,
          long i) const
    {
        const ChipConfig cfg = ChipConfig::forTechnique(technique, cores_);
        const auto p0 = Clock::now();
        auto chip = std::make_unique<Chip>(cfg);
        w.layout.apply(chip->dataStore());
        for (CoreId t = 0; t < cores_; ++t)
            chip->setProgram(t, w.programs[t]);
        const auto p1 = Clock::now();
        chip.reset();
        const auto p2 = Clock::now();
        spans.add("probe.construct", p0, p1, i);
        spans.add("probe.teardown", p1, p2, i);
    }

    unsigned cores_;
    unsigned iterations_;
    std::vector<Cell> cells_;
};

/**
 * regen_quick: every profile and micro cell of `bench_all --quick` on a
 * one-worker SweepRunner with attribution on, each module's cells
 * journaled as they finish and published as an artifact through
 * ResultSink, then every artifact parsed back the way cbsim-report
 * reads it. A row that does not parse back to its cell's digest fails
 * the cell.
 */
class RegenQuick : public Workload
{
  public:
    RegenQuick(bool smoke, std::string out_dir, bool inject_failure)
        : outDir_(std::move(out_dir)), cells_(regenCells(smoke))
    {
        const RegenSizing s = regenSizing(smoke);
        cores_ = std::to_string(s.cores);
        scale_ = JsonWriter::number(s.scale);
        microIters_ = std::to_string(s.microIters);
        // bench_main.cc's journal hash annotation.
        sweepMeta_ = "cores=" + cores_ + ";scale=" + scale_ +
                     ";micro_iters=" + microIters_;
        if (inject_failure) {
            cells_.push_back(
                {"selftest",
                 SweepJob::custom("selftest/throws",
                                  []() -> ExperimentResult {
                                      throw std::runtime_error(
                                          "injected failure");
                                  })});
        }
        for (const auto& c : cells_) {
            if (std::find(modules_.begin(), modules_.end(), c.module) ==
                modules_.end())
                modules_.push_back(c.module);
            std::ostringstream config;
            {
                JsonWriter w(config);
                w.beginObject();
                writeJobConfig(w, c.job);
                w.endObject();
            }
            identities_.push_back(config.str());
        }
    }

    bool attribution() const override { return true; }

    Pass
    run(Spans* spans, HostSpeed& speed) override
    {
        Pass pass;
        const auto t0 = Clock::now();
        SweepRunner runner(1);
        for (const auto& c : cells_)
            runner.add(c.job);

        std::map<std::string, std::unique_ptr<ResultJournal>> journals;
        for (const auto& m : modules_)
            journals.emplace(m, std::make_unique<ResultJournal>(
                                    journalPath(m)));

        std::vector<std::size_t> next_sample(cells_.size());
        const auto r0 = Clock::now();
        const auto outcomes = runner.run([&](std::size_t i,
                                             const JobOutcome& out) {
            const auto done = Clock::now();
            if (spans != nullptr)
                spans->add("cell",
                           done - std::chrono::duration_cast<
                                      Clock::duration>(
                                      std::chrono::duration<double,
                                                            std::milli>(
                                          out.wallMs)),
                           done, static_cast<long>(i));
            if (out.ok) {
                const SweepJob& job = runner.job(i);
                journals.at(cells_[i].module)
                    ->append(jobConfigHash(job, ResultSink::kSchemaVersion,
                                           sweepMeta_),
                             serializeRunRow(job, out));
                const auto appended = Clock::now();
                pass.harnessWriteMs += msBetween(done, appended);
                if (spans != nullptr)
                    spans->add("harness.journal", done, appended,
                               static_cast<long>(i));
            }
            next_sample[i] = speed.samples();
            speed.maybeSample();
        });
        const auto r1 = Clock::now();

        pass.cells.resize(cells_.size());
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            CellRun& c = pass.cells[i];
            const JobOutcome& out = outcomes[i];
            if (out.ok)
                record(c, out.result);
            else
                c.error = out.error;
            c.wallMs = out.wallMs;
            c.identity = identities_[i];
            c.nextSample = next_sample[i];
        }

        std::uintmax_t artifact_bytes = 0;
        for (const auto& m : modules_) {
            ResultSink sink(m);
            sink.meta("cores", cores_);
            sink.meta("scale", scale_);
            sink.meta("micro_iters", microIters_);
            for (std::size_t i = 0; i < cells_.size(); ++i)
                if (cells_[i].module == m)
                    sink.add(cells_[i].job, outcomes[i]);
            sink.writeFile(artifactPath(m));
            if (sink.allOk())
                ResultJournal::removeFile(journalPath(m));
            artifact_bytes += std::filesystem::file_size(artifactPath(m));
        }
        const auto r2 = Clock::now();
        pass.harnessWriteMs += msBetween(r1, r2);
        pass.artifactMb = static_cast<double>(artifact_bytes) / 1048576.0;

        for (const auto& m : modules_) {
            const auto p0 = Clock::now();
            std::string error;
            const JsonValue doc =
                JsonValue::parseFile(artifactPath(m), error);
            const auto p1 = Clock::now();
            pass.reportParseMs += msBetween(p0, p1);
            if (spans != nullptr)
                spans->add("report.parse", p0, p1);
            checkArtifact(m, doc, error, pass);
        }
        const auto t1 = Clock::now();
        pass.wallS = msBetween(t0, t1) / 1e3;
        if (spans != nullptr) {
            spans->add("harness.run", r0, r1);
            spans->add("harness.write", r1, r2);
        }
        return pass;
    }

  private:
    std::string
    artifactPath(const std::string& module) const
    {
        return outDir_ + "/" + module + ".json";
    }

    std::string
    journalPath(const std::string& module) const
    {
        return artifactPath(module) + ".journal";
    }

    /** Fail every cell of @p module whose row does not read back. */
    void
    checkArtifact(const std::string& module, const JsonValue& doc,
                  const std::string& parse_error, Pass& pass) const
    {
        const auto& rows = doc.get("runs").items();
        std::size_t row = 0;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            if (cells_[i].module != module)
                continue;
            CellRun& c = pass.cells[i];
            const JsonValue* r = row < rows.size() ? &rows[row] : nullptr;
            ++row;
            if (!c.ok)
                continue;
            if (!parse_error.empty() || r == nullptr ||
                r->getString("key") != cells_[i].job.key ||
                r->getString("status") != "ok" ||
                digestOf(parseRowResult(*r).run) != c.digest) {
                c.ok = false;
                c.error = "artifact row of " + cells_[i].job.key +
                          " does not parse back" +
                          (parse_error.empty() ? "" : ": " + parse_error);
            }
        }
    }

    std::string outDir_;
    std::vector<RegenCell> cells_;
    std::vector<std::string> modules_;
    std::vector<std::string> identities_; ///< serialized job configs
    std::string cores_, scale_, microIters_, sweepMeta_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

template <typename F>
double
medianOver(const std::vector<Pass>& passes, F f)
{
    std::vector<double> v;
    for (const auto& p : passes)
        v.push_back(f(p));
    return median(v);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
setupS(const Pass& p)
{
    return (p.cellMs() - p.loopMs()) / 1e3;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * End-to-end metrics over the untraced passes, with host times scaled
 * to the reference host speed unless @p measured_speed. Every cell's
 * times are reduced to their median over passes first; a pass is then
 * re-assembled from those medians (plus the median of its time outside
 * any cell).
 */
std::vector<Metric>
endToEnd(const std::vector<Pass>& passes, double peak_rss_mb,
         bool measured_speed = false)
{
    const std::size_t n = passes.front().cells.size();
    auto scale = [&](const Pass& p) {
        return measured_speed ? 1.0 : p.hostScale;
    };
    auto cell_median = [&](std::size_t i, auto f) {
        return medianOver(passes, [&](const Pass& p) {
            const CellRun& c = p.cells[i];
            return (measured_speed ? 1.0 : c.hostScale) * f(c);
        });
    };
    std::vector<double> cell_ms(n), loop_ms(n), setup_ms(n);
    for (std::size_t i = 0; i < n; ++i) {
        cell_ms[i] = cell_median(i, [](const CellRun& c) { return c.wallMs; });
        loop_ms[i] = cell_median(i, [](const CellRun& c) { return c.loopMs; });
        setup_ms[i] = cell_median(
            i, [](const CellRun& c) { return c.wallMs - c.loopMs; });
    }
    auto sum = [](const std::vector<double>& v) {
        double total = 0.0;
        for (const double x : v)
            total += x;
        return total;
    };
    const double outside_cells_s = medianOver(passes, [&](const Pass& p) {
        return scale(p) * (p.wallS - p.cellMs() / 1e3);
    });
    const double instructions = static_cast<double>(
        passes.front().counts()[countIndex("core.instructions")]);
    const double loop_s = sum(loop_ms) / 1e3;
    return {
        {"wall_s", sum(cell_ms) / 1e3 + outside_cells_s, "s"},
        {"setup_s", sum(setup_ms) / 1e3, "s"},
        {"sim_mips", loop_s > 0.0 ? instructions / loop_s / 1e6 : 0.0,
         "MIPS"},
        {"cell_ms_p50", median(cell_ms), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
}

std::vector<Metric>
perLayer(const std::vector<Pass>& untraced, const std::vector<Pass>& traced,
         const std::vector<Pass>& flipped, bool attribution_default)
{
    // Host times at the reference speed, medians over traced passes.
    auto traced_ms = [&](auto f) {
        return medianOver(traced, [&](const Pass& p) {
            return p.hostScale * f(p);
        });
    };
    // Phase times from the spans. Whatever part of a cell no phase
    // span covers (the whole out-of-loop time of a cell the harness
    // runs, program build inside runSyncMicro) counts as extraction.
    auto span = [&](const char* name) {
        return traced_ms(
            [name](const Pass& p) { return p.spans->totalMs(name); });
    };
    const double build = span("workload.build");
    const double construct =
        span("system.construct") + span("probe.construct");
    const double teardown =
        span("system.teardown") + span("probe.teardown");
    const double loop = traced_ms([](const Pass& p) { return p.loopMs(); });
    const double cells = traced_ms([](const Pass& p) { return p.cellMs(); });
    const double extract =
        std::max(0.0, cells - loop - build - construct - teardown);

    const Counts counts = traced.front().counts();
    auto count = [&](const char* name) {
        return static_cast<double>(counts[countIndex(name)]);
    };
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    std::set<std::pair<std::string, std::uint64_t>> distinct;
    for (const auto& c : traced.front().cells)
        distinct.emplace(c.identity, c.digest);

    // Ratios pair the passes of one round, which ran back to back and
    // so saw the same host speed.
    std::vector<double> attr_ratios, overhead_ratios;
    for (std::size_t r = 0; r < traced.size(); ++r) {
        const double on = (attribution_default ? untraced : flipped)[r]
                              .loopMs();
        const double off = (attribution_default ? flipped : untraced)[r]
                               .loopMs();
        attr_ratios.push_back(ratio(on, off));
        overhead_ratios.push_back(
            ratio(traced[r].wallS, untraced[r].wallS));
    }

    std::vector<Metric> m = {
        {"workload.build_ms", build, "ms"},
        {"workload.ns_per_static_inst",
         ratio(build * 1e6, count("workload.static_insts")), "ns"},
        {"system.construct_ms", construct, "ms"},
        {"system.extract_ms", extract, "ms"},
        {"system.teardown_ms", teardown, "ms"},
        {"sim.loop_ms", loop, "ms"},
        {"sim.ns_per_event", ratio(loop * 1e6, count("sim.events")), "ns"},
        {"noc.hops_per_packet",
         ratio(count("noc.flit_hops"), count("noc.packets")),
         "hops/packet"},
        {"obs.attr_loop_ratio", median(attr_ratios), "ratio"},
        {"harness.cells",
         static_cast<double>(traced.front().cells.size()), "count"},
        {"harness.cells_distinct", static_cast<double>(distinct.size()),
         "count"},
        {"harness.cell_s", cells / 1e3, "s"},
        {"harness.write_ms",
         traced_ms([](const Pass& p) { return p.harnessWriteMs; }), "ms"},
        {"harness.artifact_mb", traced.front().artifactMb, "MB"},
        {"report.parse_ms",
         traced_ms([](const Pass& p) { return p.reportParseMs; }), "ms"},
        {"trace.overhead_ratio", median(overhead_ratios), "ratio"},
    };
    for (const char* name : kCountNames) {
        const std::string n = name;
        const bool cycles = n.find("cycles") != std::string::npos;
        m.push_back({n, count(name), cycles ? "cycles" : "count"});
    }
    return m;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool injectFailure = false;
    bool listCells = false;
    std::string outDir = ".bench_build/run";
    std::string sourceId = "unknown";
};

void
usage()
{
    std::cerr
        << "usage: cbsim_perfbench --workload apps64|sync64|regen_quick\n"
           "         [--seed N] [--seconds S] [--trace 0|1]\n"
           "         [--size paper|smoke] [--out-dir DIR]\n"
           "         [--source-id ID] [--inject-failure]\n"
           "       cbsim_perfbench --list-cells [--size paper|smoke]\n";
}

bool
parseArgs(int argc, char** argv, Options& opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        try {
            if (a == "--workload" && has_value) {
                opt.workload = argv[++i];
            } else if (a == "--seed" && has_value) {
                opt.seed = std::stoull(argv[++i]);
            } else if (a == "--seconds" && has_value) {
                opt.seconds = std::stod(argv[++i]);
            } else if (a == "--trace" && has_value) {
                const std::string v = argv[++i];
                if (v != "0" && v != "1")
                    return false;
                opt.trace = v == "1";
            } else if (a == "--size" && has_value) {
                const std::string v = argv[++i];
                if (v != "paper" && v != "smoke")
                    return false;
                opt.smoke = v == "smoke";
            } else if (a == "--out-dir" && has_value) {
                opt.outDir = argv[++i];
            } else if (a == "--source-id" && has_value) {
                opt.sourceId = argv[++i];
            } else if (a == "--inject-failure") {
                opt.injectFailure = true;
            } else if (a == "--list-cells") {
                opt.listCells = true;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return opt.listCells || opt.workload == "apps64" ||
           opt.workload == "sync64" || opt.workload == "regen_quick";
}

/** Runs are hermetic: no CBSIM_* setting of the caller applies. */
void
clearCbsimEnvironment()
{
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string entry = *e;
        if (entry.rfind("CBSIM_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const auto& n : names)
        unsetenv(n.c_str());
}

/** regen_quick's cells as [{"key", "config"}], for the self-test. */
int
listCells(bool smoke)
{
    JsonWriter w(std::cout);
    w.beginArray();
    for (const auto& c : regenCells(smoke)) {
        w.beginObject();
        w.field("key", c.job.key);
        writeJobConfig(w, c.job);
        w.endObject();
    }
    w.endArray();
    std::cout << "\n";
    return 0;
}

std::string
metricsJson(const std::vector<Metric>& metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", " : "") + JsonWriter::quote(metrics[i].name) +
             ": {\"value\": " + JsonWriter::number(metrics[i].value) +
             ", \"unit\": " + JsonWriter::quote(metrics[i].unit) + "}";
    }
    return s + "}";
}

/** Host times of every cell of every pass, for offline analysis. */
void
writeCellTimes(const std::string& path, const std::vector<const Pass*>& passes)
{
    std::ofstream os(path, std::ios::trunc);
    os << "[";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        os << (p ? ",\n" : "\n") << "{\"wall_s\": "
           << JsonWriter::number(passes[p]->wallS)
           << ", \"host_scale\": " << JsonWriter::number(passes[p]->hostScale)
           << ", \"traced\": " << (passes[p]->spans ? "true" : "false")
           << ", \"cells\": [";
        const auto& cells = passes[p]->cells;
        for (std::size_t i = 0; i < cells.size(); ++i)
            os << (i ? ", " : "") << "["
               << JsonWriter::number(cells[i].wallMs) << ", "
               << JsonWriter::number(cells[i].loopMs) << ", "
               << JsonWriter::number(cells[i].hostScale) << "]";
        os << "]}";
    }
    os << "\n]\n";
}

int
benchMain(int argc, char** argv)
{
    clearCbsimEnvironment();
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    if (opt.listCells)
        return listCells(opt.smoke);

    const std::string out_dir = opt.outDir + "/" + opt.workload;
    std::filesystem::create_directories(out_dir);

    std::unique_ptr<Workload> wl;
    if (opt.workload == "apps64")
        wl = std::make_unique<Apps64>(opt.smoke, opt.seed);
    else if (opt.workload == "sync64")
        wl = std::make_unique<Sync64>(opt.smoke);
    else
        wl = std::make_unique<RegenQuick>(opt.smoke, out_dir,
                                          opt.injectFailure);

    std::cout << "perfbench provenance: {\"workload\": "
              << JsonWriter::quote(opt.workload)
              << ", \"size\": " << (opt.smoke ? "\"smoke\"" : "\"paper\"")
              << ", \"seed\": " << opt.seed
              << ", \"trace\": " << (opt.trace ? 1 : 0)
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"build_type\": "
              << JsonWriter::quote(PERFBENCH_BUILD_TYPE)
              << ", \"compiler\": " << JsonWriter::quote(PERFBENCH_COMPILER)
              << ", \"source\": " << JsonWriter::quote(opt.sourceId)
              << "}\n";

    HostSpeed speed;
    auto run_pass = [&](bool traced, bool attribution, const char* tag) {
        DebugConfig dcfg = DebugConfig::current();
        dcfg.obs.attribution = attribution;
        dcfg.forensicDir = out_dir;
        DebugScope scope(dcfg);
        auto spans = traced ? std::make_unique<Spans>() : nullptr;
        speed.reset();
        Pass p = wl->run(spans.get(), speed);
        p.wallS -= speed.sampledMs() / 1e3;
        p.hostScale = speed.scale();
        for (auto& c : p.cells)
            c.hostScale = speed.localScale(c.nextSample);
        p.spans = std::move(spans);
        unsigned failed = 0;
        for (const auto& c : p.cells)
            failed += !c.ok;
        std::cout << "pass " << tag << ": wall " << p.wallS << " s, loop "
                  << p.loopMs() / 1e3 << " s, setup " << setupS(p)
                  << " s, host scale " << p.hostScale << ", "
                  << p.cells.size() << " cells, " << failed << " failed\n";
        return p;
    };

    // Passes (a traced run: rounds of three passes) repeat until the
    // next one would overrun the budget.
    const auto start = Clock::now();
    auto elapsed_s = [&] { return msBetween(start, Clock::now()) / 1e3; };
    std::vector<Pass> untraced, traced, flipped;
    const bool attr = wl->attribution();
    if (!opt.trace) {
        do {
            untraced.push_back(run_pass(false, attr, "untraced"));
        } while (elapsed_s() + untraced.back().wallS < opt.seconds);
    } else {
        do {
            untraced.push_back(run_pass(false, attr, "untraced"));
            traced.push_back(run_pass(true, attr, "traced"));
            flipped.push_back(
                run_pass(false, !attr, "attribution-flipped"));
        } while (elapsed_s() + 3.0 * untraced.back().wallS <
                 opt.seconds);
    }

    // Correctness: every cell ran, and every pass simulated exactly
    // what the first one did (observation must not perturb).
    std::vector<const Pass*> all;
    for (const auto& p : untraced)
        all.push_back(&p);
    for (const auto& p : traced)
        all.push_back(&p);
    for (const auto& p : flipped)
        all.push_back(&p);
    const Pass& ref = *all.front();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Pass* p : all) {
        for (std::size_t i = 0; i < p->cells.size(); ++i) {
            const CellRun& c = p->cells[i];
            ++attempted;
            std::string error = c.error;
            if (c.ok && ref.cells[i].ok && c.digest != ref.cells[i].digest)
                error = "cell " + std::to_string(i) +
                        ": result digest differs between passes";
            if (!c.ok || !error.empty()) {
                ++failed;
                std::cerr << "FAILED: " << error << "\n";
            }
        }
    }

    std::uint64_t digest = kFnvBasis;
    for (const auto& c : ref.cells)
        digest = fnv1a(digest, &c.digest, sizeof(c.digest));
    const Counts counts = ref.counts();
    std::cout << "perfbench cells: attempted " << attempted << ", failed "
              << failed << "\n";
    std::cout << "perfbench digest: " << hex(digest) << "\n";
    std::cout << "perfbench counts: {";
    for (std::size_t i = 0; i < kNumCounts; ++i)
        std::cout << (i ? ", " : "") << "\"" << kCountNames[i]
                  << "\": " << counts[i];
    std::cout << "}\n";

    writeCellTimes(out_dir + "/cell_times.json", all);

    std::vector<Metric> metrics;
    if (opt.trace) {
        metrics = perLayer(untraced, traced, flipped, attr);
        traced.back().spans->writeChromeTrace(out_dir + "/spans.json");
    } else {
        // The reference's own memory is not the simulator's.
        const double rss_mb =
            peakRssMb() - static_cast<double>(speed.footprintBytes()) /
                              1048576.0;
        metrics = endToEnd(untraced, rss_mb);
        std::cout << "perfbench at measured host speed: "
                  << metricsJson(endToEnd(untraced, rss_mb, true)) << "\n";
    }
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace cbsim::perfbench

int
main(int argc, char** argv)
{
    return cbsim::perfbench::benchMain(argc, argv);
}
