#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace levy::serve {

/// --- Admission control: the bounded front door ----------------------------
///
/// Every accepted connection must pass through here before a worker touches
/// it. The queue has an explicit capacity and an explicit byte budget; when
/// either is exceeded the connection is *shed* — the acceptor answers
/// `503 + Retry-After` immediately, drains the request under a byte bound
/// and a deadline, and closes — instead of queueing without
/// bound. Overload therefore degrades to fast, explicit rejections while
/// admitted requests keep their latency; memory stays bounded by
/// `capacity * reserved_bytes`.
///
/// The byte budget is a reservation scheme: each admitted connection
/// reserves `reserved_bytes_per_request` (a worst case covering its request
/// head plus response buffer) up front and releases it when the worker
/// finishes. That makes the bound enforceable at admission time, before any
/// request byte has been read.

struct admission_options {
    /// Connections allowed to wait for a worker (≥ 1).
    std::size_t queue_capacity = 64;
    /// Worst-case bytes reserved per admitted (queued or in-flight) request.
    std::size_t reserved_bytes_per_request = 64 * 1024;
    /// Total reservation budget across queued + in-flight requests; 0 means
    /// "derive from capacity" (2 * capacity * reserved_bytes, i.e. the byte
    /// gate only trips when responses run larger than the reservation says).
    std::size_t max_inflight_bytes = 0;
    /// Advertised in the 503 Retry-After header.
    int retry_after_seconds = 1;
};

/// Why a connection was shed (or that it was admitted).
enum class admit_result : std::uint8_t {
    admitted,
    shed_queue_full,
    shed_bytes_exhausted,
    shed_shutdown,
};

[[nodiscard]] const char* admit_result_name(admit_result r) noexcept;

/// One admitted connection, carried from the acceptor to a worker. The
/// ticket owns its admission reservation, not the fd (the server closes fds
/// explicitly so the shutdown path can drain deterministically).
struct admission_ticket {
    int fd = -1;
    std::uint64_t sequence = 0;  ///< admission order, 0-based
};

class admission_queue {
public:
    explicit admission_queue(const admission_options& opts);

    admission_queue(const admission_queue&) = delete;
    admission_queue& operator=(const admission_queue&) = delete;

    /// Acceptor side: admit `fd` or report why not. On `admitted` the
    /// connection's reservation is held until `release()`.
    [[nodiscard]] admit_result try_admit(int fd);

    /// Worker side: block until a ticket or shutdown (nullopt). Tickets pop
    /// in admission order.
    [[nodiscard]] std::optional<admission_ticket> pop();

    /// Worker side: request finished (responded or failed) — return the
    /// ticket's reservation to the budget.
    void release() noexcept;

    /// Wake every popper with nullopt; subsequent try_admit sheds. Queued,
    /// never-popped fds are returned via `drain` so the caller can close
    /// them (the queue does not own fds).
    void shutdown() noexcept;
    [[nodiscard]] std::deque<int> drain();

    /// Currently queued (admitted, not yet popped).
    [[nodiscard]] std::size_t depth() const;
    /// Reserved bytes across queued + in-flight requests.
    [[nodiscard]] std::size_t reserved_bytes() const;

    struct counters {
        std::uint64_t admitted = 0;
        std::uint64_t shed_queue_full = 0;
        std::uint64_t shed_bytes = 0;
        std::uint64_t shed_shutdown = 0;
        [[nodiscard]] std::uint64_t shed_total() const noexcept {
            return shed_queue_full + shed_bytes + shed_shutdown;
        }
    };
    [[nodiscard]] counters stats() const;

    [[nodiscard]] const admission_options& options() const noexcept { return opts_; }

private:
    admission_options opts_;
    mutable std::mutex m_;
    std::condition_variable cv_;
    std::deque<admission_ticket> queue_;
    std::size_t reserved_ = 0;  ///< bytes reserved (queued + in-flight)
    std::uint64_t next_sequence_ = 0;
    counters counters_;
    bool shutdown_ = false;
};

}  // namespace levy::serve
