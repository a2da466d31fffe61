/**
 * @file
 * Simulated-memory layout allocator for synchronization structures and
 * workload data, plus the initial-value list applied before a run.
 */

#ifndef CBSIM_SYNC_LAYOUT_HH
#define CBSIM_SYNC_LAYOUT_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mem/addr.hh"
#include "sim/types.hh"

namespace cbsim {

class DataStore;

/**
 * Hands out non-overlapping simulated addresses. Synchronization
 * variables get a full cache line each (no false sharing); per-thread
 * private state gets a page per thread so first-touch classification
 * keeps it Private.
 */
class SyncLayout
{
  public:
    /**
     * Lines are carved from @p base upward; whole pages (private
     * regions) come from a disjoint region above @p page_base so that
     * page-aligned allocations do not force subsequent sync lines onto
     * page boundaries (which would home them all on bank 0).
     */
    explicit SyncLayout(Addr base = 0x4000'0000ULL,
                        Addr page_base = 0x8000'0000ULL)
        : next_(base), nextPage_(page_base)
    {
    }

    /** One fresh, line-aligned cache line; returns its address. */
    Addr allocLine();

    /** @p lines consecutive lines (shared data arrays). */
    Addr allocLines(unsigned lines);

    /** One fresh page (4 KB), page-aligned. */
    Addr allocPage();

    /**
     * Thread-private line inside thread @p tid's private page region.
     * Lines for the same tid share pages; different tids never do.
     */
    Addr allocPrivateLine(CoreId tid);

    /**
     * Next instance name for @p stem: "lock0", "lock1", "barrier0" —
     * one counter per stem, so names are stable and unique within a
     * layout. Used by the sync make* builders to name handles. The
     * layout binds no symbol: the emitters bind a handle's names as
     * data symbols, for attribution, in each Assembler that emits the
     * handle, on its first episode there (see LockHandle::name).
     */
    std::string autoName(const std::string& stem);

    /** Record an initial word value, applied by apply(). */
    void init(Addr addr, Word value);

    /** Write all recorded initial values into @p store. */
    void apply(DataStore& store) const;

    const std::vector<std::pair<Addr, Word>>& initWrites() const
    {
        return inits_;
    }

  private:
    Addr next_;
    Addr nextPage_;
    std::vector<std::pair<Addr, Word>> inits_;
    std::map<std::string, unsigned> nameCounts_;

    struct PrivateRegion
    {
        Addr next = 0;
        Addr end = 0;
    };
    std::vector<PrivateRegion> privates_;
};

} // namespace cbsim

#endif // CBSIM_SYNC_LAYOUT_HH
