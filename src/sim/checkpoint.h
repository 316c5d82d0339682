#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace levy::sim {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `len` bytes. Used to
/// checksum every journal header and record — the Monte-Carlo journal and
/// the out-of-core block journal — and the cache file, so torn or
/// bit-rotted files are detected at load instead of silently corrupting
/// tables. Slicing-by-8: eight bytes per table step, the
/// same values as the bytewise definition.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len) noexcept;

/// Write `bytes` to `path` crash-safely: the content goes to `<path>.tmp`,
/// is fsync'd, is renamed over `path` in one atomic step, and the parent
/// directory is fsync'd so the rename itself is durable — `path` only ever
/// holds a complete previous version or a complete new version, and a
/// version that was reported written survives power loss (POSIX persists a
/// rename only once the directory entry is synced; see DESIGN.md §11).
/// Throws std::runtime_error on I/O failure (the temp file is removed).
void atomic_write_file(const std::string& path, const std::vector<char>& bytes);

/// The commit step of every crash-safe write (atomic_write_file, the CSV
/// writer): rename the complete, fsync'd `tmp` over `path`, then fsync the
/// parent directory. Throws std::runtime_error on failure; a failed rename
/// removes `tmp`.
void durable_rename(const std::string& tmp, const std::string& path);

/// Replace `out` with the whole content of `path`, in one sized read (a
/// reused `out` keeps its capacity). False when the file cannot be opened
/// or read in full; `out`'s content is then unspecified.
[[nodiscard]] bool read_file(const std::string& path, std::vector<char>& out);

/// Identity of a journaled run for resume purposes. A journal written
/// under one key is ignored (and later overwritten) by a run with any other
/// key: resuming is only exact because every record is a pure function of
/// the run's identity and its index, so every field must match.
struct journal_key {
    std::uint64_t seed = 0;
    std::uint64_t trials = 0;        ///< records the run can hold
    std::uint32_t payload_size = 0;  ///< bytes per record payload
    /// Further identity words, stored in the header after `trials` and
    /// compared like the fields above. A Monte-Carlo journal has none; the
    /// out-of-core block journal (sim/shard_engine.h) stores its run's.
    std::vector<std::uint64_t> context = {};
};

/// What `load_journal` recovered from disk.
struct journal_contents {
    /// Validated records, trial index -> payload (`payload_size` bytes each).
    std::map<std::uint64_t, std::vector<char>> records;
    /// True when the file existed with a valid, matching header.
    bool matched = false;
    /// True when trailing bytes failed CRC/layout validation and were
    /// dropped (short write, torn write, bit rot). The surviving prefix is
    /// still trustworthy — every kept record passed its own CRC.
    bool dropped_tail = false;
};

/// Parse the journal at `path` against `key`. Never throws on corrupt
/// input: a missing file, foreign magic, bad header CRC, or key mismatch
/// yields `matched == false` and no records; a corrupt record drops itself
/// and everything after it (`dropped_tail == true`, as for a file cut short
/// of its header or with a rotted one). Exposed separately from
/// trial_journal so tests can probe recovery byte by byte.
[[nodiscard]] journal_contents load_journal(const std::string& path, const journal_key& key);

/// Append-only journal of completed trial results, persisted crash-safely.
///
/// The on-disk format (version 1, all integers little-endian):
///
///     header  : magic u64 "LVYJOURN" | version u32 | payload_size u32
///             | seed u64 | trials u64 | context u64 × |key.context|
///             | crc32(everything before it) u32
///     record* : trial_index u64 | payload bytes | crc32(index|payload) u32
///
/// Records are kept sorted by trial index and the whole file is rewritten
/// through `atomic_write_file` on every flush, so the journal on disk is
/// always canonical: same completed set => same bytes, regardless of the
/// completion order a particular thread schedule produced.
///
/// Thread safety: `record` may be called concurrently from pool workers;
/// `restore`/`commit` belong to the driver thread.
class trial_journal {
public:
    /// `interval_trials` completed trials or `interval_seconds` elapsed —
    /// whichever comes first — trigger a flush (interval_trials >= 1).
    trial_journal(std::string path, const journal_key& key, std::size_t interval_trials,
                  double interval_seconds);
    trial_journal(const trial_journal&) = delete;
    trial_journal& operator=(const trial_journal&) = delete;
    /// Best-effort final flush; never throws (exception-path durability:
    /// a worker exception or cancellation still persists completed trials).
    ~trial_journal();

    /// Load the journal from disk, copy every recovered payload into
    /// `results_base + index * payload_size`, and return the sorted trial
    /// indices that still need to run.
    [[nodiscard]] std::vector<std::size_t> restore(void* results_base);

    /// Load the journal from disk and keep its records, so later flushes
    /// carry them on; returns what was recovered (restore without the copy).
    [[nodiscard]] journal_contents reload();

    /// The run completed: delete the journal file and write nothing more,
    /// not even the destructor's final flush. Throws nothing.
    void remove() noexcept;

    /// Journal trial `index` (payload is `payload_size` bytes). Flushes per
    /// the configured intervals. A journal whose injected write fault fired
    /// (see fault.h) goes silently dead, like a real torn disk.
    void record(std::size_t index, const void* payload);

    /// Final flush; throws std::runtime_error on I/O failure.
    void commit();

    /// Records currently held (restored + recorded).
    [[nodiscard]] std::size_t completed() const;

    /// Flushes made so far, and the bytes they wrote.
    [[nodiscard]] std::size_t flushes() const;
    [[nodiscard]] std::uint64_t flushed_bytes() const;

    /// True when restore() found and dropped a corrupt tail.
    [[nodiscard]] bool recovered_from_corruption() const noexcept { return dropped_tail_; }

private:
    void flush_locked();

    std::string path_;
    journal_key key_;
    std::size_t interval_trials_;
    double interval_seconds_;

    mutable std::mutex m_;
    std::map<std::uint64_t, std::vector<char>> records_;
    std::size_t unflushed_ = 0;
    std::size_t flush_ordinal_ = 0;
    std::uint64_t flushed_bytes_ = 0;
    bool dirty_ = false;
    bool dead_ = false;  ///< injected write fault or remove(): write nothing more
    bool dropped_tail_ = false;
    std::chrono::steady_clock::time_point last_flush_;
};

}  // namespace levy::sim
