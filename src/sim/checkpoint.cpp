#include "src/sim/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
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

/// A journal's framing ("LVYJOURN", version 2): its key is the identity,
/// and a record's payload is its trial index followed by the result bytes.
frame_format journal_format(const journal_key& key) {
    frame_format format{.magic = 0x4c56594a4f55524eULL,  // "LVYJOURN" big-endian bytes
                        .version = 2,
                        .payload_bytes = 8 + key.payload_size,
                        .identity = {key.seed, key.trials}};
    format.identity.insert(format.identity.end(), key.context.begin(), key.context.end());
    return format;
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

/// The commit step of atomic_write_file: rename the complete, fsync'd `tmp`
/// over `path`, then fsync the parent directory. Throws std::runtime_error
/// on failure; a failed rename removes `tmp`.
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

bool read_file(const std::string& path, std::vector<char>& out) {
    // A directory opens, and on ext4 its size reads as 2^63 - 1.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec)) return false;
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

std::vector<char> write_frames(const frame_format& format, std::size_t records,
                               const std::function<void(char*)>& fill) {
    const std::size_t header = 8 + 4 + 4 + 8 * format.identity.size() + 4;
    const std::size_t record = format.payload_bytes + std::size_t{4};
    std::vector<char> bytes(header + records * record);
    char* p = store_le(bytes.data(), format.magic);
    p = store_le(p, format.version);
    p = store_le(p, static_cast<std::uint32_t>(record));
    for (const std::uint64_t word : format.identity) p = store_le(p, word);
    p = store_le(p, crc32(bytes.data(), header - 4));
    for (std::size_t i = 0; i < records; ++i, p += record) {
        fill(p);
        store_le(p + format.payload_bytes, crc32(p, format.payload_bytes));
    }
    return bytes;
}

frame_scan read_frames(std::span<const char> file, const frame_format& format) {
    frame_scan out;
    // The header this format writes. A sound header with the same magic and
    // version that differs from it belongs to another file.
    const std::vector<char> own = write_frames(format, 0, nullptr);
    const std::size_t record = format.payload_bytes + std::size_t{4};
    const char* p = file.data();
    if (file.size() < own.size() || !std::equal(own.begin(), own.begin() + 12, p) ||
        load_le<std::uint32_t>(p + own.size() - 4) != crc32(p, own.size() - 4)) {
        return out;
    }
    if (!std::equal(own.begin(), own.end(), p)) {
        out.header = frame_header::foreign;
        return out;
    }
    out.header = frame_header::matching;
    std::size_t off = own.size();
    for (; off + record <= file.size(); off += record) {
        const std::span<const char> payload = file.subspan(off, format.payload_bytes);
        const auto stored = load_le<std::uint32_t>(p + off + format.payload_bytes);
        out.records.push_back({payload, crc32(payload.data(), payload.size()) == stored});
    }
    out.partial_tail = off != file.size();
    return out;
}

journal_contents load_journal(const std::string& path, const journal_key& key) {
    journal_contents out;
    std::vector<char> bytes;
    if (!read_file(path, bytes)) return out;  // no journal yet: clean fresh start
    const frame_scan scan = read_frames(bytes, journal_format(key));
    // A corrupt header recomputes everything; the journal of a different
    // run is ignored wholesale.
    out.matched = scan.header == frame_header::matching;
    out.dropped_tail = scan.header == frame_header::corrupt || scan.partial_tail;
    for (const auto& [payload, intact] : scan.records) {
        const auto index = load_le<std::uint64_t>(payload.data());
        // Records are written sorted and unique; anything else is corruption.
        const bool ordered = out.records.empty() || index > out.records.rbegin()->first;
        if (!intact || index >= key.trials || !ordered) {
            out.dropped_tail = true;
            break;
        }
        out.records.emplace_hint(out.records.end(), index,
                                 std::vector<char>(payload.begin() + 8, payload.end()));
    }
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
    auto next = records_.begin();
    std::vector<char> bytes = write_frames(journal_format(key_), records_.size(), [&](char* p) {
        const auto& [index, payload] = *next++;
        std::copy(payload.begin(), payload.end(), store_le(p, index));
    });
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
