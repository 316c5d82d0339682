#include "src/sim/fault.h"

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/sim/monte_carlo.h"

namespace levy::sim {
namespace {

// The plan itself is written only while inactive (install before the run,
// clear after it drains); workers observe it through the active flag's
// acquire/release pair, so there is no concurrent plain-field access.
fault_plan g_plan;
std::atomic<bool> g_active{false};

}  // namespace

void install_fault_plan(const fault_plan& plan) noexcept {
    g_plan = plan;
    g_active.store(true, std::memory_order_release);
}

void clear_fault_plan() noexcept { g_active.store(false, std::memory_order_release); }

bool fault_plan_active() noexcept { return g_active.load(std::memory_order_acquire); }

void fault_before_trial(std::size_t index) {
    if (!fault_plan_active()) return;
    if (index == g_plan.exit_at_trial) {
        std::_Exit(9);  // SIGKILL-grade: no unwinding, no flushes
    }
    if (index == g_plan.throw_at_trial) {
        throw injected_fault("injected worker fault at trial " + std::to_string(index));
    }
    if (index == g_plan.bad_alloc_at_trial) {
        throw std::bad_alloc();
    }
}

void fault_after_trial(std::size_t index) noexcept {
    if (!fault_plan_active()) return;
    if (index == g_plan.cancel_after_trial) request_cancel();
}

void fault_before_query(std::size_t sequence) {
    if (!fault_plan_active()) return;
    if (sequence == g_plan.throw_at_query) {
        throw injected_fault("injected worker fault at query " + std::to_string(sequence));
    }
}

void fault_before_cache_flush(std::size_t ordinal) noexcept {
    if (!fault_plan_active()) return;
    if (ordinal == g_plan.exit_at_cache_flush) {
        std::_Exit(9);  // SIGKILL-grade: the flush never reaches the disk
    }
}

namespace {
std::atomic<std::uint64_t> g_dir_fsyncs{0};
}  // namespace

void note_dir_fsync() noexcept { g_dir_fsyncs.fetch_add(1, std::memory_order_relaxed); }

std::uint64_t dir_fsync_count() noexcept { return g_dir_fsyncs.load(std::memory_order_relaxed); }

bool fault_on_checkpoint_flush(std::size_t ordinal, std::vector<char>& bytes) noexcept {
    if (!fault_plan_active() || bytes.empty()) return false;
    if (ordinal == g_plan.exit_at_flush) {
        std::_Exit(9);  // SIGKILL-grade: the flush never reaches the disk
    }
    if (ordinal == g_plan.short_write_flush) {
        // levylint:allow(throwing-call-in-noexcept) shrink-only resize: the
        // guard proves new size < current size, so no allocation can happen
        if (g_plan.short_write_bytes < bytes.size()) bytes.resize(g_plan.short_write_bytes);
        return true;
    }
    if (ordinal == g_plan.torn_write_flush) {
        bytes[g_plan.torn_write_offset % bytes.size()] ^= static_cast<char>(0x40);
        return true;
    }
    return false;
}

}  // namespace levy::sim
