#include "src/sim/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define LEVY_HAVE_FSYNC 1
#else
#define LEVY_HAVE_FSYNC 0
#endif

#include "src/core/contracts.h"
#include "src/obs/metrics.h"
#include "src/obs/progress.h"
#include "src/sim/fault.h"
#include "src/sim/le_bytes.h"

namespace levy::sim {
namespace {

constexpr std::uint64_t kMagic = 0x4c56594a4f55524eULL;  // "LVYJOURN" big-endian bytes
constexpr std::uint32_t kVersion = 1;
/// Header bytes for `key`: magic, version, payload size, seed, trials, the
/// context words, and the trailing header CRC.
std::size_t header_bytes(const journal_key& key) noexcept {
    return 8 + 4 + 4 + 8 + 8 + 8 * key.context.size() + 4;
}

/// Slicing-by-8 tables: kCrc[0] is the bytewise CRC-32 table, and
/// kCrc[s][i] is the CRC of byte i followed by s zero bytes, so one step can
/// fold eight input bytes with eight independent lookups.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t s = 1; s < t.size(); ++s) {
        for (std::size_t i = 0; i < 256; ++i) {
            t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
        }
    }
    return t;
}();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const char*>(data);
    std::uint32_t c = 0xffffffffu;
    for (; len >= 8; p += 8, len -= 8) {
        const std::uint32_t lo = load_le<std::uint32_t>(p) ^ c;
        const std::uint32_t hi = load_le<std::uint32_t>(p + 4);
        c = kCrc[7][lo & 0xff] ^ kCrc[6][(lo >> 8) & 0xff] ^ kCrc[5][(lo >> 16) & 0xff] ^
            kCrc[4][lo >> 24] ^ kCrc[3][hi & 0xff] ^ kCrc[2][(hi >> 8) & 0xff] ^
            kCrc[1][(hi >> 16) & 0xff] ^ kCrc[0][hi >> 24];
    }
    for (; len > 0; ++p, --len) c = kCrc[0][(c ^ static_cast<unsigned char>(*p)) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void atomic_write_file(const std::string& path, const std::vector<char>& bytes) {
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        throw std::runtime_error("atomic_write_file: cannot open " + tmp);
    }
    bool ok = bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = std::fflush(f) == 0 && ok;
#if LEVY_HAVE_FSYNC
    ok = ::fsync(::fileno(f)) == 0 && ok;
#endif
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        throw std::runtime_error("atomic_write_file: short write to " + tmp);
    }
    durable_rename(tmp, path);
}

void durable_rename(const std::string& tmp, const std::string& path) {
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("durable_rename: cannot rename " + tmp + " -> " + path);
    }
#if LEVY_HAVE_FSYNC
    // The rename is atomic but not durable until the *directory entry* is on
    // disk: POSIX only persists a rename once the parent directory has been
    // fsynced, so without this a power cut after a "successful" commit could
    // leave the old file — or no file at all. Tests pin the rule through
    // dir_fsync_count() (fault.h).
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? std::string(".") : path.substr(0, slash == 0 ? 1 : slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) {
        throw std::runtime_error("durable_rename: cannot open parent dir " + dir);
    }
    const bool synced = ::fsync(dfd) == 0;
    ::close(dfd);
    if (!synced) {
        throw std::runtime_error("durable_rename: fsync of parent dir " + dir + " failed");
    }
    note_dir_fsync();
#endif
}

bool read_file(const std::string& path, std::vector<char>& out) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    bool ok = std::fseek(f, 0, SEEK_END) == 0;
    const long len = ok ? std::ftell(f) : -1;
    ok = len >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
    if (ok) {
        out.resize(static_cast<std::size_t>(len));
        ok = out.empty() || std::fread(out.data(), 1, out.size(), f) == out.size();
    }
    std::fclose(f);
    return ok;
}

journal_contents load_journal(const std::string& path, const journal_key& key) {
    journal_contents out;
    std::vector<char> bytes;
    if (!read_file(path, bytes)) return out;  // no journal yet: clean fresh start

    const std::size_t header = header_bytes(key);
    if (bytes.size() < header) {
        out.dropped_tail = true;  // cut short of a header: recompute all
        return out;
    }
    const char* p = bytes.data();
    if (load_le<std::uint64_t>(p) != kMagic || load_le<std::uint32_t>(p + 8) != kVersion ||
        crc32(p, header - 4) != load_le<std::uint32_t>(p + header - 4)) {
        out.dropped_tail = true;  // unrecognizable or rotted header: recompute all
        return out;
    }
    const auto payload_size = load_le<std::uint32_t>(p + 12);
    const auto seed = load_le<std::uint64_t>(p + 16);
    const auto trials = load_le<std::uint64_t>(p + 24);
    bool same_run = payload_size == key.payload_size && seed == key.seed && trials == key.trials;
    for (std::size_t i = 0; i < key.context.size(); ++i) {
        same_run = same_run && load_le<std::uint64_t>(p + 32 + 8 * i) == key.context[i];
    }
    if (!same_run) return out;  // journal of a different run: ignore it wholesale
    out.matched = true;

    const std::size_t record_bytes = 8 + static_cast<std::size_t>(payload_size) + 4;
    std::size_t off = header;
    std::uint64_t prev_index = 0;
    bool first = true;
    while (off + record_bytes <= bytes.size()) {
        const char* rec = p + off;
        const auto index = load_le<std::uint64_t>(rec);
        const auto stored = load_le<std::uint32_t>(rec + 8 + payload_size);
        // Records are written sorted and unique; anything else is corruption.
        const bool ordered = first || index > prev_index;
        if (index >= key.trials || !ordered || crc32(rec, 8 + payload_size) != stored) {
            out.dropped_tail = true;
            return out;
        }
        out.records.emplace(index, std::vector<char>(rec + 8, rec + 8 + payload_size));
        prev_index = index;
        first = false;
        off += record_bytes;
    }
    if (off != bytes.size()) out.dropped_tail = true;  // trailing partial record
    return out;
}

trial_journal::trial_journal(std::string path, const journal_key& key,
                             std::size_t interval_trials, double interval_seconds)
    : path_(std::move(path)),
      key_(key),
      interval_trials_(interval_trials),
      interval_seconds_(interval_seconds),
      last_flush_(std::chrono::steady_clock::now()) {
    LEVY_PRECONDITION(!path_.empty(), "trial_journal: checkpoint path must be non-empty");
    LEVY_PRECONDITION(interval_trials_ >= 1, "trial_journal: flush interval must be >= 1 trial");
    LEVY_PRECONDITION(key_.payload_size >= 1, "trial_journal: payload size must be >= 1");
}

trial_journal::~trial_journal() {
    std::lock_guard lk(m_);
    if (!dirty_ || dead_) return;
    try {
        flush_locked();
    } catch (...) {
        // Destructor durability is best effort; commit() is the loud path.
    }
}

journal_contents trial_journal::reload() {
    journal_contents loaded = load_journal(path_, key_);
    std::lock_guard lk(m_);
    dropped_tail_ = loaded.dropped_tail;
    records_ = loaded.records;
    return loaded;
}

void trial_journal::remove() noexcept {
    std::lock_guard lk(m_);
    dead_ = true;
    std::remove(path_.c_str());
}

std::vector<std::size_t> trial_journal::restore(void* results_base) {
    (void)reload();
    std::vector<std::size_t> missing;
    std::lock_guard lk(m_);
    auto* base = static_cast<char*>(results_base);
    for (const auto& [index, payload] : records_) {
        std::copy(payload.begin(), payload.end(),
                  base + index * static_cast<std::size_t>(key_.payload_size));
    }
    missing.reserve(static_cast<std::size_t>(key_.trials) - records_.size());
    auto it = records_.begin();
    for (std::uint64_t i = 0; i < key_.trials; ++i) {
        if (it != records_.end() && it->first == i) {
            ++it;
        } else {
            missing.push_back(static_cast<std::size_t>(i));
        }
    }
    obs::get_counter("mc.trials_restored").add(records_.size());
    return missing;
}

void trial_journal::record(std::size_t index, const void* payload) {
    const auto* bytes = static_cast<const char*>(payload);
    std::lock_guard lk(m_);
    if (dead_) return;
    LEVY_ASSERT(index < key_.trials, "trial_journal: record index out of range");
    records_.insert_or_assign(static_cast<std::uint64_t>(index),
                              std::vector<char>(bytes, bytes + key_.payload_size));
    dirty_ = true;
    ++unflushed_;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - last_flush_).count();
    if (unflushed_ >= interval_trials_ || elapsed >= interval_seconds_) flush_locked();
}

void trial_journal::commit() {
    std::lock_guard lk(m_);
    if (!dirty_ || dead_) return;
    flush_locked();
}

std::size_t trial_journal::completed() const {
    std::lock_guard lk(m_);
    return records_.size();
}

std::size_t trial_journal::flushes() const {
    std::lock_guard lk(m_);
    return flush_ordinal_;
}

std::uint64_t trial_journal::flushed_bytes() const {
    std::lock_guard lk(m_);
    return flushed_bytes_;
}

void trial_journal::flush_locked() {
    const std::size_t header = header_bytes(key_);
    std::vector<char> bytes(header + records_.size() * (12 + key_.payload_size));
    char* p = store_le(bytes.data(), kMagic);
    p = store_le(p, kVersion);
    p = store_le(p, key_.payload_size);
    p = store_le(p, key_.seed);
    p = store_le(p, key_.trials);
    for (const std::uint64_t word : key_.context) p = store_le(p, word);
    p = store_le(p, crc32(bytes.data(), header - 4));
    for (const auto& [index, payload] : records_) {
        char* const rec = p;
        p = std::copy(payload.begin(), payload.end(), store_le(p, index));
        p = store_le(p, crc32(rec, 8 + payload.size()));
    }
    // A planned short/torn write (fault.h) corrupts this flush exactly the
    // way a dying disk would — after the mutated bytes land, the journal
    // goes silently dead so the corruption survives for the next run's
    // loader to recover from.
    const bool injected = fault_on_checkpoint_flush(flush_ordinal_, bytes);
    ++flush_ordinal_;
    static const obs::counter flushes = obs::get_counter("checkpoint.flushes");
    static const obs::counter flushed_bytes = obs::get_counter("checkpoint.bytes");
    static const obs::histogram_metric flush_ns =
        obs::get_histogram("checkpoint.flush_ns", {});  // log2 nanosecond buckets
    const auto flush_start = std::chrono::steady_clock::now();
    atomic_write_file(path_, bytes);
    flushed_bytes_ += bytes.size();
    flushes.add();
    flushed_bytes.add(bytes.size());
    flush_ns.observe_u64(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             flush_start)
            .count()));
    if (injected) {
        dead_ = true;
        return;
    }
    unflushed_ = 0;
    dirty_ = false;
    last_flush_ = std::chrono::steady_clock::now();
    // Progress reporting: "ckpt Ns ago" is this gauge against the shared
    // monotonic timebase — a stalling journal shows up as a growing age.
    obs::set_gauge(obs::kCheckpointFlushGauge, obs::monotonic_seconds());
}

}  // namespace levy::sim
