#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace levy::sim {

/// Deterministic fault-injection plan for resilience tests.
///
/// Every trigger is keyed on a trial index or a journal flush ordinal —
/// never on wall-clock time or external entropy — so a test that installs a
/// plan gets the same fault on every run (up to thread schedule, which the
/// checkpoint/resume layer is precisely designed to make irrelevant).
///
/// Install with `install_fault_plan`, clear with `clear_fault_plan`. The
/// hooks below are called by the Monte-Carlo driver, every framed file's
/// flush (the Monte-Carlo checkpoint, the out-of-core block journal and
/// levyserve's result cache alike) and levyserve's workers; with no plan
/// installed they compile down to one relaxed atomic load. Production
/// binaries never install a plan — only tests, the `levyfault` tool and
/// levyserve's `--fault-*` flags do.
struct fault_plan {
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

    /// Throw levy::sim::injected_fault from the worker running this trial.
    std::size_t throw_at_trial = kNever;
    /// Throw std::bad_alloc from the worker running this trial (simulated
    /// allocation failure).
    std::size_t bad_alloc_at_trial = kNever;
    /// Call request_cancel() once this trial completes (SIGTERM-style
    /// cooperative cancellation).
    std::size_t cancel_after_trial = kNever;
    /// std::_Exit the whole process before this trial runs — a SIGKILL-grade
    /// crash: no destructors, no flushes, only already-renamed journal
    /// bytes survive. Used by the levyfault tool, never by in-process tests.
    std::size_t exit_at_trial = kNever;

    /// Flush numbers are 0-based and counted per file: per Monte-Carlo
    /// run, per sharded trial for the block journal, per result cache.
    /// Truncate flush number N to `short_write_bytes` bytes.
    std::size_t short_write_flush = kNever;
    std::size_t short_write_bytes = 0;
    /// XOR one byte (at `torn_write_offset` mod file size) of flush
    /// number N.
    std::size_t torn_write_flush = kNever;
    std::size_t torn_write_offset = 0;
    /// std::_Exit the process when flush number N is about to persist — a
    /// kill -9 between flushes: only the records already renamed into place
    /// survive (for a sharded trial, the blocks finished before the one
    /// whose record was being flushed; for the cache, the previous flush).
    std::size_t exit_at_flush = kNever;

    /// --- Service faults (levyserve; see src/serve/server.h) --------------
    /// Throw injected_fault from the worker handling query number N
    /// (0-based admission order) — a crashing handler must answer 500 and
    /// leave the server serving.
    std::size_t throw_at_query = kNever;
};

/// Thrown by fault_before_trial when the plan says a worker dies here.
class injected_fault : public std::runtime_error {
public:
    explicit injected_fault(const std::string& what) : std::runtime_error(what) {}
};

void install_fault_plan(const fault_plan& plan) noexcept;
void clear_fault_plan() noexcept;
[[nodiscard]] bool fault_plan_active() noexcept;

/// Hook: start of trial `index`. May throw injected_fault / std::bad_alloc
/// or _Exit the process, per the installed plan.
void fault_before_trial(std::size_t index);

/// Hook: trial `index` completed. May request cooperative cancellation.
void fault_after_trial(std::size_t index) noexcept;

/// Hook: a framed file (a journal or the result cache) is about to persist
/// `bytes` as its flush number `ordinal`. May _Exit the process, or apply
/// the plan's short/torn-write mutation in place and return true when a
/// fault fired (a journal then plays dead so the corruption survives on
/// disk).
[[nodiscard]] bool fault_on_checkpoint_flush(std::size_t ordinal,
                                             std::vector<char>& bytes) noexcept;

/// Hook: a levyserve worker is about to run query number `sequence`. May
/// throw injected_fault per the installed plan.
void fault_before_query(std::size_t sequence);

/// Durability observability: atomic_write_file (checkpoint.h) calls
/// note_dir_fsync() after it has fsynced the parent directory of its
/// rename, and tests read the running total via dir_fsync_count() to pin
/// the rename-durability rule (see DESIGN.md §11). Always on — one
/// relaxed atomic increment — so the regression test does not depend on a
/// fault plan being installed.
void note_dir_fsync() noexcept;
[[nodiscard]] std::uint64_t dir_fsync_count() noexcept;

}  // namespace levy::sim
