#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace levy::sim {

/// Deterministic fault-injection plan for resilience tests.
///
/// Every trigger is keyed on a trial index or a checkpoint flush ordinal —
/// never on wall-clock time or external entropy — so a test that installs a
/// plan gets the same fault on every run (up to thread schedule, which the
/// checkpoint/resume layer is precisely designed to make irrelevant).
///
/// Install with `install_fault_plan`, clear with `clear_fault_plan`. The
/// hooks below are called by the Monte-Carlo driver and the checkpoint
/// journal; with no plan installed they compile down to one relaxed atomic
/// load. Production binaries never install a plan — only tests and the
/// `levyfault` tool do.
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

    /// Truncate checkpoint flush number N to `short_write_bytes` bytes.
    std::size_t short_write_flush = kNever;
    std::size_t short_write_bytes = 0;
    /// XOR one byte (at `torn_write_offset` mod file size) of checkpoint
    /// flush number N.
    std::size_t torn_write_flush = kNever;
    std::size_t torn_write_offset = 0;

    /// --- Shard-spill faults (sim/shard_engine) ---------------------------
    /// std::_Exit the process when shard spill number N (1-based, counted
    /// across the run) is about to persist — a kill -9 mid-epoch: shards
    /// already renamed into place survive, everything else is recomputed on
    /// resume.
    std::size_t exit_at_shard_spill = kNever;
    /// Truncate shard spill number N to `short_shard_spill_bytes` bytes (a
    /// torn disk under the atomic-write layer). The corruption is detected
    /// at the next load by CRC and only that shard recomputes.
    std::size_t short_shard_spill = kNever;
    std::size_t short_shard_spill_bytes = 0;
    /// XOR one byte (at `torn_shard_spill_offset` mod file size) of shard
    /// spill number N.
    std::size_t torn_shard_spill = kNever;
    std::size_t torn_shard_spill_offset = 0;

    /// --- Service faults (levyserve; see src/serve/server.h) --------------
    /// Throw injected_fault from the worker handling query number N
    /// (0-based admission order) — a crashing handler must answer 500 and
    /// leave the server serving.
    std::size_t throw_at_query = kNever;
    /// std::_Exit the process when result-cache flush number N (1-based) is
    /// about to persist — a kill -9 "between cache flushes": the previous
    /// on-disk cache must survive and reload verbatim.
    std::size_t exit_at_cache_flush = kNever;
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

/// Hook: the journal is about to persist `bytes` as flush number `ordinal`.
/// Applies the plan's short/torn-write mutation in place and returns true
/// when a fault fired (the journal then plays dead so the corruption
/// survives on disk).
[[nodiscard]] bool fault_on_checkpoint_flush(std::size_t ordinal,
                                             std::vector<char>& bytes) noexcept;

/// Hook: a levyserve worker is about to run query number `sequence`. May
/// throw injected_fault per the installed plan.
void fault_before_query(std::size_t sequence);

/// Hook: the result cache is about to persist flush number `ordinal`
/// (1-based). May _Exit the process per the installed plan — the bytes are
/// assembled but nothing has been renamed into place yet.
void fault_before_cache_flush(std::size_t ordinal) noexcept;

/// Hook: the shard engine is about to persist spill number `ordinal`
/// (1-based). May _Exit the process, or apply the plan's short/torn-write
/// mutation in place and return true when a fault fired — the engine still
/// writes the mutated bytes, so the corruption lands on disk exactly like a
/// real torn write under the rename.
[[nodiscard]] bool fault_on_shard_spill(std::size_t ordinal, std::vector<char>& bytes) noexcept;

/// Durability observability: durable_rename (checkpoint.h) calls
/// note_dir_fsync() after it has fsynced the parent directory of a rename —
/// for atomic_write_file and the CSV writer alike — and tests read the
/// running total via dir_fsync_count() to pin the rename-durability rule
/// (see DESIGN.md §11). Always on — one relaxed atomic increment — so the
/// regression test does not depend on a fault plan being installed.
void note_dir_fsync() noexcept;
[[nodiscard]] std::uint64_t dir_fsync_count() noexcept;

}  // namespace levy::sim
