#include "system/chip.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "debug/fault_injection.hh"
#include "debug/forensics.hh"
#include "debug/invariant_checker.hh"
#include "debug/noc_tracker.hh"
#include "debug/watchdog.hh"
#include "harness/json.hh"
#include "obs/attribution.hh"
#include "obs/causal.hh"
#include "obs/epoch.hh"
#include "obs/trace_export.hh"
#include "sim/log.hh"

namespace cbsim {

Chip::Chip(const ChipConfig& cfg)
    : cfg_(cfg),
      domains_(DomainMap(cfg.noc.width, cfg.noc.height,
                         ChipConfig::timingDomains(cfg.threads,
                                                   cfg.noc.width,
                                                   cfg.noc.height)),
               std::max<Tick>(cfg.noc.switchLatency, 1)),
      mesh_(domains_, cfg.noc, stats_.scope("noc")),
      memory_(domains_, cfg.memLatency, stats_.scope("mem")),
      syncShards_(domains_.count())
{
    cfg_.validate();
    // LLC banks see only their own residue class of line numbers; index
    // sets on the post-interleaving bits so the whole bank is usable.
    cfg_.llcBank.indexDivisor = cfg_.numCores;
    syncShards_.front().registerStats(stats_.scope("sync"));
    classifier_.registerStats(stats_.scope("pages"));

    const unsigned n = cfg_.numCores;
    l1s_.reserve(n);
    banks_.reserve(n);
    cores_.reserve(n);

    for (CoreId i = 0; i < n; ++i) {
        const auto node = static_cast<NodeId>(i);
        EventQueue& q = domains_.queueOf(node);
        if (cfg_.protocol == ProtocolKind::Mesi) {
            auto l1 = std::make_unique<MesiL1>(
                i, node, q, mesh_, data_, cfg_.l1, cfg_.l1Latency, n,
                cfg_.backoff.pauseDelay);
            l1->registerStats(stats_.scope("l1." + std::to_string(i)));
            mesiL1s_.push_back(l1.get());
            auto bank = std::make_unique<MesiLlcBank>(
                static_cast<BankId>(i), q, mesh_, data_, memory_,
                cfg_.llcBank, cfg_.llc);
            bank->registerStats(stats_.scope("llc." + std::to_string(i)));
            mesiBanks_.push_back(bank.get());
            l1s_.push_back(std::move(l1));
            banks_.push_back(std::move(bank));
        } else {
            auto l1 = std::make_unique<VipsL1>(
                i, node, q, mesh_, data_, classifier_, cfg_.l1,
                cfg_.l1Latency, n);
            l1->registerStats(stats_.scope("l1." + std::to_string(i)));
            vipsL1s_.push_back(l1.get());
            auto bank = std::make_unique<VipsLlcBank>(
                static_cast<BankId>(i), q, mesh_, data_, memory_,
                cfg_.llcBank, cfg_.llc, cfg_.cbEntriesPerBank,
                cfg_.cbDirLatency, n);
            bank->registerStats(stats_.scope("llc." + std::to_string(i)));
            vipsBanks_.push_back(bank.get());
            l1s_.push_back(std::move(l1));
            banks_.push_back(std::move(bank));
        }

        mesh_.attach(node, Port::Core,
                     [l1 = l1s_.back().get()](const Message& m) {
                         l1->handleMessage(m);
                     });
        mesh_.attach(node, Port::Bank,
                     [bank = banks_.back().get()](const Message& m) {
                         bank->handleMessage(m);
                     });

        auto core = std::make_unique<Core>(
            i, q, *l1s_.back(), cfg_.backoff,
            syncShards_[domains_.domainOf(node)], [this] {
                finished_.fetch_add(1, std::memory_order_relaxed);
            });
        core->registerStats(stats_.scope("core." + std::to_string(i)));
        cores_.push_back(std::move(core));
    }

    if (cfg_.protocol == ProtocolKind::Vips) {
        classifier_.setTransitionHook(
            [this](CoreId prev_owner, Addr page_base) {
                vipsL1s_.at(prev_owner)->reclassifyPage(page_base);
            });
    }

    if (domains_.parallel()) {
        // The chip-wide page table and data store are the two truly
        // shared structures; switch them to their windowed/deferred
        // parallel modes (see their headers for the determinism
        // arguments).
        if (cfg_.protocol == ProtocolKind::Vips) {
            std::vector<unsigned> coreDomain(n);
            for (CoreId i = 0; i < n; ++i)
                coreDomain[i] =
                    domains_.domainOf(static_cast<NodeId>(i));
            classifier_.enableWindowed(domains_.count(),
                                       std::move(coreDomain));
        }
        data_.setDeferredGrowth(true, 1u << 15);
    }

    buildDebug();
    buildObs();
}

/**
 * Construct whichever observability components the obs config asks
 * for. Like buildDebug, everything-off (the default) creates nothing:
 * the hot paths see only null-pointer compares and one tick compare
 * per dispatched event-queue bucket.
 */
void
Chip::buildObs()
{
    const ObsConfig& obs = cfg_.debug.obs;

    if (obs.traceEnabled()) {
        trace_ = std::make_unique<TraceExporter>(cfg_.numCores,
                                                 cfg_.numCores);
        if (domains_.parallel()) {
            std::vector<unsigned> coreDomain(cfg_.numCores);
            std::vector<unsigned> bankDomain(cfg_.numCores);
            for (unsigned i = 0; i < cfg_.numCores; ++i) {
                coreDomain[i] =
                    domains_.domainOf(static_cast<NodeId>(i));
                bankDomain[i] = coreDomain[i]; // bank i sits at node i
            }
            trace_->setDomains(domains_.count(), std::move(coreDomain),
                               std::move(bankDomain));
        }
        for (auto& core : cores_)
            core->setTrace(trace_.get());
        for (VipsLlcBank* bank : vipsBanks_)
            bank->setTrace(trace_.get());
    }

    if (obs.attributionEnabled()) {
        // One bounded shard per instrumented component, registered as
        // "<scope>.attr". Shards for components without attribution
        // sites (VIPS L1s) are not created. Each shard is touched only
        // by its component's timing domain, so the parallel kernel
        // needs no extra synchronization here.
        auto shard = [this](const std::string& scope) {
            attrShards_.push_back(std::make_unique<AttributionTable>());
            stats_.scope(scope).add("attr", *attrShards_.back());
            return attrShards_.back().get();
        };
        for (CoreId i = 0; i < cfg_.numCores; ++i)
            cores_[i]->setAttribution(shard("core." + std::to_string(i)));
        for (std::size_t i = 0; i < mesiL1s_.size(); ++i)
            mesiL1s_[i]->setAttribution(
                shard("l1." + std::to_string(i)));
        for (std::size_t i = 0; i < mesiBanks_.size(); ++i)
            mesiBanks_[i]->setAttribution(
                shard("llc." + std::to_string(i)));
        for (std::size_t i = 0; i < vipsBanks_.size(); ++i)
            vipsBanks_[i]->setAttribution(
                shard("llc." + std::to_string(i)));
    }

    if (obs.causalEnabled()) {
        // One shard per timing domain; every instrumented component
        // writes the shard of its own node's domain, so the parallel
        // kernel needs no synchronization beyond the barrier-time fold.
        // Component i (core, L1, bank) sits at node i.
        causal_ = std::make_unique<CausalTracker>(domains_.count());
        auto shardAt = [this](unsigned i) {
            return &causal_->shard(
                domains_.domainOf(static_cast<NodeId>(i)));
        };
        for (CoreId i = 0; i < cfg_.numCores; ++i)
            cores_[i]->setCausal(shardAt(i));
        for (std::size_t i = 0; i < mesiL1s_.size(); ++i)
            mesiL1s_[i]->setCausal(shardAt(static_cast<unsigned>(i)));
        for (std::size_t i = 0; i < vipsBanks_.size(); ++i)
            vipsBanks_[i]->setCausal(shardAt(static_cast<unsigned>(i)));
        mesh_.setCausal(causal_.get());
    }

    if (trace_ != nullptr)
        trace_->setSymbols(&symbols_);

    if (obs.epochEnabled()) {
        epochSampler_ = std::make_unique<EpochSampler>(stats_, [this] {
            std::uint64_t blocked = 0;
            for (const auto& core : cores_)
                blocked += core->blockedOnMemory() ? 1 : 0;
            return blocked;
        });
        epochSampler_->setTrace(trace_.get());
        if (cfg_.threads > 0)
            epochSampler_->installParallel(obs.epochTicks);
        else
            epochSampler_->install(domains_.queue(0), obs.epochTicks);
    }
}

/**
 * Construct whichever robustness components the debug config asks for.
 * With everything off (the default) this creates nothing and installs
 * nothing — the hot paths see only null-pointer compares.
 */
void
Chip::buildDebug()
{
    const DebugConfig& dbg = cfg_.debug;

    if (dbg.faults.enabled()) {
        faults_ = std::make_unique<FaultInjector>(dbg.faults);
        // Protocol-level injection sites exist only on VIPS (callback
        // directory, self-invalidation); a MESI chip under a fault plan
        // still gets the NoC delay perturbation below.
        for (VipsL1* l1 : vipsL1s_)
            l1->setFaultInjector(faults_.get());
        for (VipsLlcBank* bank : vipsBanks_)
            bank->setFaultInjector(faults_.get());
    }

    if (dbg.trackMessagesEffective()) {
        nocTracker_ = std::make_unique<NocTracker>();
        mesh_.setDebug(nocTracker_.get(), faults_.get());
    }

    if (dbg.checkInvariants) {
        InvariantChecker::Sources src;
        for (const auto& core : cores_)
            src.cores.push_back(core.get());
        src.mesiL1s = {mesiL1s_.begin(), mesiL1s_.end()};
        src.mesiBanks = {mesiBanks_.begin(), mesiBanks_.end()};
        src.vipsL1s = {vipsL1s_.begin(), vipsL1s_.end()};
        src.vipsBanks = {vipsBanks_.begin(), vipsBanks_.end()};
        if (cfg_.protocol == ProtocolKind::Vips)
            src.classifier = &classifier_;
        src.noc = nocTracker_.get();
        checker_ = std::make_unique<InvariantChecker>(std::move(src));
    }

    if (dbg.wantsPolling()) {
        Watchdog::Hooks hooks;
        hooks.progressCounter = [this] {
            std::uint64_t sum = 0;
            for (const auto& core : cores_)
                sum += core->instructionsRetired();
            return sum;
        };
        if (checker_ != nullptr) {
            hooks.checkInvariants = [this] {
                InvariantChecker::enforce("interval",
                                          checker_->checkInterval());
            };
        }
        watchdog_ = std::make_unique<Watchdog>(domains_.queue(0), dbg,
                                               std::move(hooks));
        if (cfg_.threads > 0) {
            // Parallel kernel: progress and invariant checks run under
            // the barrier (onParallelBarrier); per-domain poll hooks do
            // only the thread-safe wall-clock check, so a wedged window
            // still trips the timeout from inside the window.
            watchdog_->installParallel();
            for (unsigned d = 0; d < domains_.count(); ++d) {
                EventQueue& q = domains_.queue(d);
                q.setPollHook(dbg.checkIntervalEvents, [this, &q] {
                    watchdog_->checkWall(q.now());
                });
            }
        } else {
            watchdog_->install();
        }
    }
}

Chip::~Chip() = default;

void
Chip::setProgram(CoreId core, Program program)
{
    // Merge the thread's data symbols chip-wide; emitters register the
    // same handle names on every thread, so first binding wins.
    for (const auto& [addr, name] : program.symbols())
        symbols_.try_emplace(addr, name);
    cores_.at(core)->setProgram(std::move(program));
}

void
Chip::foldShardedStats()
{
    mesh_.foldShards();
    memory_.foldShards();
    for (std::size_t d = 1; d < syncShards_.size(); ++d)
        syncShards_.front().mergeFrom(syncShards_[d]);
}

void
Chip::onParallelBarrier(Tick end)
{
    // Order matters: the invariant checker (via the watchdog hook)
    // reads the page classifier, so the window's classifications must
    // be committed first.
    classifier_.applyWindow();
    if (watchdog_ != nullptr) {
        const std::uint64_t executed = domains_.executedEvents();
        if (executed >= nextPollEvents_) {
            nextPollEvents_ = executed + cfg_.debug.checkIntervalEvents;
            watchdog_->pollAt(end);
        }
    }
    if (causal_ != nullptr)
        causal_->fold();
    data_.growIfNeeded();
}

Tick
Chip::onParallelWindowStart(Tick start, Tick proposed)
{
    if (epochSampler_ == nullptr)
        return proposed;
    // The sampler reads the registered shard-0 counters, so fold
    // before cutting; every event < start has executed, which is
    // exactly the classic kernel's state when it fires boundaries
    // <= the next bucket tick.
    foldShardedStats();
    epochSampler_->cutUpTo(start);
    return std::min(proposed, epochSampler_->nextBoundaryAt());
}

RunResult
Chip::run()
{
    CBSIM_ASSERT(!ran_, "Chip::run called twice");
    ran_ = true;
    // Time only the event-loop window: this is the kernel-throughput
    // number bench_perf_kernel compares across kernel versions, so it
    // must exclude construction, program loading, and stats extraction
    // (identical work on both sides of any comparison).
    const auto t0 = std::chrono::steady_clock::now();
    for (auto& core : cores_)
        core->start();
    try {
        if (cfg_.threads > 0) {
            if (watchdog_ != nullptr)
                nextPollEvents_ = cfg_.debug.checkIntervalEvents;
            TimingDomains::RunHooks hooks;
            hooks.onBarrier = [this](Tick end) {
                onParallelBarrier(end);
            };
            hooks.onWindowStart = [this](Tick s, Tick p) {
                return onParallelWindowStart(s, p);
            };
            domains_.run(cfg_.maxTicks, cfg_.threads, std::move(hooks));
        } else {
            domains_.queue(0).run(cfg_.maxTicks);
        }
    } catch (const std::exception& e) {
        // Tick-budget exhaustion, watchdog trips, and invariant panics
        // all surface here; attach the machine state before rethrowing.
        dumpForensics(e.what());
        throw;
    }
    const double sim_wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    foldShardedStats();
    if (finishedCores() != cfg_.numCores) {
        dumpForensics("quiesce failure: event queue drained with "
                      "unfinished cores");
        fatal("deadlock: only ", finishedCores(), " of ", cfg_.numCores,
              " cores finished");
    }
    if (checker_ != nullptr) {
        const auto violations = checker_->checkQuiesce();
        if (!violations.empty()) {
            dumpForensics("quiesce invariant violations");
            InvariantChecker::enforce("quiesce", violations);
        }
    }
    // Execution time is the last core's completion; the queue may drain
    // later due to harmless residual events (e.g., spin-watch timeouts).
    Tick end = 0;
    for (const auto& core : cores_)
        end = std::max(end, core->doneTick());
    RunResult result = RunResult::fromStats(stats_, syncShards_.front(),
                                            end);
    result.events = domains_.executedEvents();
    result.simWallMs = sim_wall_ms;
    result.threads = cfg_.threads > 0 ? domains_.count() : 0;
    if (cfg_.threads > 0) {
        result.windows = domains_.windowsExecuted();
        result.workerPerf = domains_.workerPerf();
    }
    if (epochSampler_ != nullptr)
        result.epochs = epochSampler_->rows();
    if (!attrShards_.empty()) {
        std::vector<const AttributionTable*> shards;
        shards.reserve(attrShards_.size());
        for (const auto& s : attrShards_)
            shards.push_back(s.get());
        result.contention =
            buildContention(shards, symbols_, RunResult::kContentionTopN);
    }
    if (causal_ != nullptr) {
        causal_->fold();
        result.causal = causal_->rows();
    }
    if (trace_ != nullptr)
        trace_->writeFile(cfg_.debug.obs.traceDir, cfg_.debug.label);
    return result;
}

std::vector<std::string>
Chip::checkInvariantsNow() const
{
    if (checker_ == nullptr)
        return {};
    return checker_->checkQuiesce();
}

std::string
Chip::dumpForensics(const std::string& reason)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("schema", forensics::kSchema);
        w.field("reason", reason);
        w.field("label", cfg_.debug.label);
        w.field("protocol",
                cfg_.protocol == ProtocolKind::Mesi ? "mesi" : "vips");
        w.field("num_cores", cfg_.numCores);
        w.field("finished_cores", finishedCores());
        w.field("now", domains_.now());
        // Kernel selector of the wedged run: worker count (--threads /
        // CBSIM_THREADS) and the domain partition it implies — the same
        // pair the quarantine bundle records, so a repro starts from
        // the same kernel.
        w.field("threads", cfg_.threads);
        w.field("timing_domains", domains_.count());

        // Aggregate executed/pending over every domain; the bucket-level
        // head window comes from domain 0 (the only domain when the
        // classic kernel is running).
        const EventQueue::DebugSnapshot snap =
            domains_.queue(0).debugSnapshot();
        w.key("event_queue");
        w.beginObject();
        w.field("executed", domains_.executedEvents());
        w.field("pending",
                static_cast<std::uint64_t>(domains_.pendingEvents()));
        w.field("far_pending",
                static_cast<std::uint64_t>(snap.farPending));
        w.field("far_min", snap.farMin);
        w.key("head_window");
        w.beginArray();
        for (const auto& [when, count] : snap.headWindow) {
            w.beginObject();
            w.field("tick", when);
            w.field("events", static_cast<std::uint64_t>(count));
            w.endObject();
        }
        w.endArray();
        w.endObject();

        if (domains_.parallel()) {
            // Sharded-kernel state: where the window scheduler stood,
            // each domain's own clock and head events, and what every
            // worker thread was last seen doing — enough to tell a
            // wedged domain (one queue stuck behind the others) from a
            // wedged barrier (workers parked, coordinator gone).
            w.key("parallel_kernel");
            w.beginObject();
            w.field("window_start", domains_.windowStart());
            w.field("window_end", domains_.windowEnd());
            w.field("lookahead", domains_.lookahead());
            w.field("windows_executed", domains_.windowsExecuted());
            w.key("domains");
            w.beginArray();
            for (unsigned d = 0; d < domains_.count(); ++d) {
                const EventQueue& q = domains_.queue(d);
                const EventQueue::DebugSnapshot ds = q.debugSnapshot();
                w.beginObject();
                w.field("domain", d);
                w.field("now", q.now());
                w.field("executed", q.executedEvents());
                w.field("pending",
                        static_cast<std::uint64_t>(q.pendingEvents()));
                w.field("far_pending",
                        static_cast<std::uint64_t>(ds.farPending));
                w.field("far_min", ds.farMin);
                w.key("head_window");
                w.beginArray();
                for (const auto& [when, count] : ds.headWindow) {
                    w.beginObject();
                    w.field("tick", when);
                    w.field("events",
                            static_cast<std::uint64_t>(count));
                    w.endObject();
                }
                w.endArray();
                w.endObject();
            }
            w.endArray();
            w.key("workers");
            w.beginArray();
            for (unsigned wk = 0; wk < domains_.workerCount(); ++wk)
                w.value(TimingDomains::workerPhaseName(
                    domains_.workerPhase(wk)));
            w.endArray();
            w.endObject();
        }

        w.key("cores");
        w.beginArray();
        for (const auto& core : cores_)
            core->dumpDebug(w);
        w.endArray();

        w.key("l1s");
        w.beginArray();
        for (const auto& l1 : l1s_)
            l1->dumpDebug(w);
        w.endArray();

        w.key("banks");
        w.beginArray();
        for (const auto& bank : banks_)
            bank->dumpDebug(w);
        w.endArray();

        w.key("noc_in_flight");
        if (nocTracker_ != nullptr) {
            w.beginArray();
            nocTracker_->forEachInFlight(
                [&w](const Message& m, NodeId at, Tick injected) {
                    w.beginObject();
                    w.field("message", m.toString());
                    w.field("at_node", static_cast<unsigned>(at));
                    w.field("injected_at", injected);
                    w.endObject();
                });
            w.endArray();
        } else {
            w.null();
        }

        if (checker_ != nullptr) {
            // Best effort: the dump may itself be reporting a violation.
            w.key("invariant_violations");
            w.beginArray();
            for (const std::string& v : checker_->checkQuiesce())
                w.value(v);
            w.endArray();
        }
        w.endObject();
    }
    return forensics::emitReport(cfg_.debug, os.str());
}

const CallbackDirectory&
Chip::callbackDirectory(BankId i) const
{
    const auto* bank = dynamic_cast<const VipsLlcBank*>(banks_.at(i).get());
    if (!bank)
        fatal("callbackDirectory: not a VIPS chip");
    return bank->directory();
}

} // namespace cbsim
