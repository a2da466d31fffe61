#include "debug/invariant_checker.hh"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "coherence/mesi/mesi_l1.hh"
#include "coherence/mesi/mesi_llc.hh"
#include "coherence/vips/page_classifier.hh"
#include "coherence/vips/vips_l1.hh"
#include "coherence/vips/vips_llc.hh"
#include "core/core.hh"
#include "noc/mesh.hh"
#include "mem/addr.hh"
#include "sim/log.hh"

namespace cbsim {

namespace {

template <typename... Args>
std::string
violation(const char* name, Args&&... args)
{
    std::ostringstream os;
    os << "[" << name << "] ";
    (os << ... << args);
    return os.str();
}

std::string
hex(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

} // namespace

const std::vector<const char*>&
InvariantChecker::invariantNames()
{
    static const std::vector<const char*> names = {
        "mesi-single-owner", "mesi-sharer-tracking", "vips-page-private",
        "cb-waiter-live",    "cb-fe-consistent",     "mshr-no-leak",
        "txn-no-leak",       "waiter-no-leak",       "noc-no-leak",
    };
    return names;
}

void
InvariantChecker::checkMesi(std::vector<std::string>& out) const
{
    if (src_.mesiBanks.empty())
        return;
    const unsigned num_banks =
        static_cast<unsigned>(src_.mesiBanks.size());

    // Lines that are legitimately mid-transaction: an open directory
    // transaction at any bank, or a pending miss at any L1. Sharer and
    // owner state for these is transient (invalidations or data still
    // on the wire) and is not checked.
    std::unordered_set<Addr> transient;
    for (const MesiLlcBank* bank : src_.mesiBanks) {
        for (Addr a : bank->openTxnAddrs())
            transient.insert(a);
    }
    for (const MesiL1* l1 : src_.mesiL1s) {
        if (auto line = l1->pendingLine())
            transient.insert(*line);
    }

    std::unordered_map<Addr, CoreId> owners; // line -> E/M holder seen
    for (CoreId c = 0; c < src_.mesiL1s.size(); ++c) {
        for (const auto& [line, state] : src_.mesiL1s[c]->cachedLines()) {
            if (transient.count(line))
                continue;
            const MesiLlcBank* home =
                src_.mesiBanks[AddrLayout::bankOf(line, num_banks)];
            if (state == MesiState::S) {
                if ((home->sharersOf(line) & (1ULL << c)) == 0) {
                    out.push_back(violation(
                        "mesi-sharer-tracking", "core ", c,
                        " caches line ", hex(line),
                        " in S but the home directory does not track "
                        "it (sharers=",
                        home->sharersOf(line), ")"));
                }
                continue;
            }
            // E or M: exclusive ownership.
            auto [it, fresh] = owners.emplace(line, c);
            if (!fresh) {
                out.push_back(violation(
                    "mesi-single-owner", "cores ", it->second, " and ",
                    c, " both hold line ", hex(line), " in E/M"));
            }
            if (home->ownerOf(line) != c) {
                out.push_back(violation(
                    "mesi-single-owner", "core ", c, " holds line ",
                    hex(line), " in E/M but the home directory names ",
                    "owner ", home->ownerOf(line)));
            }
        }
    }
}

void
InvariantChecker::checkVips(std::vector<std::string>& out) const
{
    if (src_.vipsL1s.empty() || src_.classifier == nullptr)
        return;
    for (CoreId c = 0; c < src_.vipsL1s.size(); ++c) {
        src_.vipsL1s[c]->forEachCachedLine(
            [&](Addr line, bool private_page, std::uint32_t) {
                if (!private_page)
                    return;
                const CoreId owner = src_.classifier->privateOwner(line);
                if (owner != c) {
                    out.push_back(violation(
                        "vips-page-private", "core ", c, " caches line ",
                        hex(line),
                        " marked private-page, but the classifier's ",
                        "owner is ", owner,
                        " (stale mark escapes self-invalidation)"));
                }
            });
    }
}

void
InvariantChecker::checkCallbacks(std::vector<std::string>& out) const
{
    if (src_.vipsBanks.empty())
        return;
    const unsigned num_cores = static_cast<unsigned>(src_.cores.size());
    const std::uint64_t all_mask =
        num_cores == 64 ? ~0ULL : ((1ULL << num_cores) - 1);

    for (const VipsLlcBank* bank : src_.vipsBanks) {
        // Parked waiters, for the CB bit <-> parked request biconditional.
        std::unordered_set<std::uint64_t> parked; // (word<<6)|core
        for (const auto& [word, core] : bank->parkedWaiterList()) {
            parked.insert((static_cast<std::uint64_t>(word) << 6) | core);
            if (!bank->directory().hasCallback(word, core)) {
                out.push_back(violation(
                    "cb-waiter-live", "core ", core,
                    " is parked on word ", hex(word),
                    " but its CB bit is clear"));
            }
        }

        for (const auto& e : bank->directory().entryStates()) {
            if ((e.cb & ~all_mask) != 0 || (e.fe & ~all_mask) != 0) {
                out.push_back(violation(
                    "cb-fe-consistent", "entry ", hex(e.word),
                    " has bits beyond the core count (cb=", e.cb,
                    " fe=", e.fe, ")"));
            }
            // Both modes: a core never has a pending callback and a
            // full bit at once. (One mode reads F/E as a boolean, and
            // st_cb0 carries a partial All-mode mask into One mode
            // undisturbed, so all-or-nothing does NOT hold there —
            // only disjointness is preserved by every transition.)
            if ((e.cb & e.fe) != 0) {
                out.push_back(violation(
                    "cb-fe-consistent", "entry ", hex(e.word),
                    " has cores with both CB and F/E set (cb=", e.cb,
                    " fe=", e.fe, ")"));
            }

            for (CoreId c = 0; c < num_cores; ++c) {
                if ((e.cb & (1ULL << c)) == 0)
                    continue;
                const Core* core = src_.cores[c];
                if (core->finished()) {
                    out.push_back(violation(
                        "cb-waiter-live", "CB bit of finished core ", c,
                        " is set for word ", hex(e.word)));
                } else if (!core->blockedOnCallback()) {
                    out.push_back(violation(
                        "cb-waiter-live", "CB bit of core ", c,
                        " is set for word ", hex(e.word),
                        " but the core is not blocked on a callback ",
                        "read"));
                }
                if (!parked.count(
                        (static_cast<std::uint64_t>(e.word) << 6) | c)) {
                    out.push_back(violation(
                        "cb-waiter-live", "CB bit of core ", c,
                        " is set for word ", hex(e.word),
                        " but no request is parked at the bank"));
                }
            }
        }
    }
}

void
InvariantChecker::checkLeaks(std::vector<std::string>& out) const
{
    for (std::size_t b = 0; b < src_.mesiBanks.size(); ++b) {
        const MesiLlcBank* bank = src_.mesiBanks[b];
        if (bank->lockTable().lockedLines() != 0) {
            out.push_back(violation(
                "mshr-no-leak", "MESI bank ", b, " still holds ",
                bank->lockTable().lockedLines(),
                " line locks at end of run"));
        }
        if (const auto open = bank->openTxnAddrs(); !open.empty()) {
            out.push_back(violation(
                "txn-no-leak", "MESI bank ", b, " still has ",
                open.size(), " open directory transactions, first on ",
                hex(open.front())));
        }
    }
    for (std::size_t b = 0; b < src_.vipsBanks.size(); ++b) {
        const VipsLlcBank* bank = src_.vipsBanks[b];
        if (bank->lockTable().lockedLines() != 0) {
            out.push_back(violation(
                "mshr-no-leak", "VIPS bank ", b, " still holds ",
                bank->lockTable().lockedLines(),
                " line locks at end of run"));
        }
        if (bank->parkedWaiters() != 0) {
            out.push_back(violation(
                "waiter-no-leak", "VIPS bank ", b, " still has ",
                bank->parkedWaiters(),
                " parked callback waiters at end of run"));
        }
    }
    if (src_.noc != nullptr && src_.noc->inFlight() != 0) {
        std::size_t listed = 0;
        std::ostringstream os;
        src_.noc->forEachInFlight(
            [&](const Message& m, NodeId at, Tick injected) {
                if (listed++ < 4) {
                    os << " {" << m.toString() << " at node " << at
                       << " since tick " << injected << "}";
                }
            });
        out.push_back(violation(
            "noc-no-leak", src_.noc->inFlight(),
            " messages still in flight at end of run:", os.str()));
    }
}

std::vector<std::string>
InvariantChecker::checkInterval() const
{
    std::vector<std::string> out;
    checkMesi(out);
    checkVips(out);
    checkCallbacks(out);
    return out;
}

std::vector<std::string>
InvariantChecker::checkQuiesce() const
{
    std::vector<std::string> out = checkInterval();
    checkLeaks(out);
    return out;
}

void
InvariantChecker::enforce(const char* when,
                          const std::vector<std::string>& violations)
{
    if (violations.empty())
        return;
    std::ostringstream os;
    os << violations.size() << " protocol invariant violation"
       << (violations.size() == 1 ? "" : "s") << " (" << when << "):";
    for (const auto& v : violations)
        os << "\n  " << v;
    panic(os.str());
}

} // namespace cbsim
