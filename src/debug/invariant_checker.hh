/**
 * @file
 * Runtime protocol invariant checker (docs/ROBUSTNESS.md §Invariants).
 *
 * Validates cross-component protocol state at event-count intervals
 * (from the watchdog's poll hook, i.e. between events — never inside
 * one, so single-event-atomic transients are invisible by design) and
 * at quiesce. Each check is named; violations are formatted as
 * "[name] detail" strings and enforced via panic() — the Chip attaches
 * the forensic dump on the way out.
 *
 * Checked invariants (names are load-bearing: scripts/check_docs.sh
 * requires each to be documented in docs/ROBUSTNESS.md):
 *
 *  - "mesi-single-owner":    at most one L1 holds a line in E/M, and the
 *                            home directory's owner field names it.
 *  - "mesi-sharer-tracking": every line cached by an L1 is tracked by
 *                            the home directory (a cached-but-untracked
 *                            line would miss invalidations — the stale-
 *                            sharer bug class). Lines with an open
 *                            directory transaction or a pending L1 miss
 *                            are skipped as legitimately transient.
 *  - "vips-page-private":    an L1 line marked private-page belongs to a
 *                            page the classifier still considers Private
 *                            to that core (a stale private mark would
 *                            escape self-invalidation, paper §3.1).
 *  - "cb-waiter-live":       callback-directory CB bits name exactly the
 *                            cores that are alive, blocked on a callback
 *                            read, and parked at the owning bank
 *                            (paper §2: CB bit set ⟺ blocked ld_cb).
 *  - "cb-fe-consistent":     F/E discipline (paper §2.3): a core never
 *                            has its CB and F/E bits both set (every
 *                            transition preserves disjointness — note
 *                            st_cb0 legally carries a partial All-mode
 *                            F/E mask into One mode, where reads treat
 *                            F/E as a boolean); no bits beyond the core
 *                            count.
 *  - "mshr-no-leak":         (quiesce) every bank's line-lock table is
 *                            empty — a held lock means a lost unlock.
 *  - "txn-no-leak":          (quiesce) no MESI directory transaction is
 *                            still open.
 *  - "waiter-no-leak":       (quiesce) no callback waiter is still
 *                            parked after all cores finished.
 *  - "noc-no-leak":          (quiesce) no tracked NoC message is still
 *                            undelivered.
 */

#ifndef CBSIM_DEBUG_INVARIANT_CHECKER_HH
#define CBSIM_DEBUG_INVARIANT_CHECKER_HH

#include <string>
#include <vector>

#include "sim/types.hh"

namespace cbsim {

class Core;
class MesiL1;
class MesiLlcBank;
class VipsL1;
class VipsLlcBank;
class PageClassifier;
class Mesh;

class InvariantChecker
{
  public:
    /** Names of all checked invariants (docs coverage + tests). */
    static const std::vector<const char*>& invariantNames();

    /**
     * Non-owning views of the chip's components. Vectors are indexed
     * by CoreId/BankId (Chip construction order). Exactly one protocol
     * family is populated; the other stays empty.
     */
    struct Sources
    {
        std::vector<const Core*> cores;
        std::vector<const MesiL1*> mesiL1s;
        std::vector<const MesiLlcBank*> mesiBanks;
        std::vector<const VipsL1*> vipsL1s;
        std::vector<const VipsLlcBank*> vipsBanks;
        const PageClassifier* classifier = nullptr;
        const Mesh* noc = nullptr; ///< in-flight table (leak check)
    };

    explicit InvariantChecker(Sources src) : src_(std::move(src)) {}

    /** Interval pass (between events): protocol-state invariants. */
    std::vector<std::string> checkInterval() const;

    /** Quiesce pass: interval invariants + end-of-run leak checks. */
    std::vector<std::string> checkQuiesce() const;

    /** panic() with all violations if @p violations is non-empty. */
    static void enforce(const char* when,
                        const std::vector<std::string>& violations);

  private:
    void checkMesi(std::vector<std::string>& out) const;
    void checkVips(std::vector<std::string>& out) const;
    void checkCallbacks(std::vector<std::string>& out) const;
    void checkLeaks(std::vector<std::string>& out) const;

    Sources src_;
};

} // namespace cbsim

#endif // CBSIM_DEBUG_INVARIANT_CHECKER_HH
