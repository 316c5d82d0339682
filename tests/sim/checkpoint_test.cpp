#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/sim/checkpoint.h"
#include "src/sim/fault.h"
#include "src/sim/monte_carlo.h"

namespace levy::sim {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per fixture; removed on teardown.
class CheckpointTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() / "levy_checkpoint_test";
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    [[nodiscard]] std::string file(const std::string& name) const {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

std::vector<char> read_all(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_all(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

TEST(Crc32, MatchesIeeeCheckValue) {
    // The standard CRC-32 check value: crc of the ASCII digits "123456789".
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    // Any single-bit flip must change the checksum (spot check).
    std::string s = "123456789";
    s[4] ^= 0x10;
    EXPECT_NE(crc32(s.data(), s.size()), 0xCBF43926u);
}

TEST(Crc32, SlicedMatchesBytewiseReferenceAtEveryLengthAndAlignment) {
    // The textbook one-bit-at-a-time CRC-32, independent of crc32's tables.
    const auto reference = [](const unsigned char* p, std::size_t len) {
        std::uint32_t c = 0xffffffffu;
        for (std::size_t i = 0; i < len; ++i) {
            c ^= p[i];
            for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        }
        return c ^ 0xffffffffu;
    };
    std::vector<unsigned char> buf(8 + 300);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (unsigned char& b : buf) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<unsigned char>(x >> 56);
    }
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 300; ++len) {
            ASSERT_EQ(crc32(buf.data() + offset, len), reference(buf.data() + offset, len))
                << "offset=" << offset << " len=" << len;
        }
    }
}

TEST_F(CheckpointTest, ReadFileReturnsWholeContentIntoAReusedBuffer) {
    const std::string path = file("blob.bin");
    std::vector<char> bytes(1000, 'x');  // stale, longer content is replaced
    EXPECT_FALSE(read_file(path, bytes));  // missing file
    write_all(path, {'a', '\0', 'b'});
    ASSERT_TRUE(read_file(path, bytes));
    EXPECT_EQ(bytes, (std::vector<char>{'a', '\0', 'b'}));
    write_all(path, {});
    ASSERT_TRUE(read_file(path, bytes));
    EXPECT_TRUE(bytes.empty());
}

TEST_F(CheckpointTest, AtomicWriteRoundTripsAndLeavesNoTemp) {
    const std::string path = file("blob.bin");
    const std::vector<char> payload = {'a', 'b', '\0', 'c'};
    atomic_write_file(path, payload);
    EXPECT_EQ(read_all(path), payload);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    // Overwrite is atomic too: the new content fully replaces the old.
    const std::vector<char> next(1000, 'x');
    atomic_write_file(path, next);
    EXPECT_EQ(read_all(path), next);
}

#if defined(__unix__) || defined(__APPLE__)
TEST_F(CheckpointTest, AtomicWriteFsyncsTheParentDirectory) {
    // Regression: rename alone does not make the new directory entry
    // durable on POSIX — atomic_write_file must fsync the parent directory
    // after the rename, or a power cut can forget a "committed" checkpoint.
    // The counter is bumped by the production code path itself (see
    // note_dir_fsync), so this fails against a build that skips the fsync.
    const std::uint64_t before = dir_fsync_count();
    atomic_write_file(file("durable.bin"), std::vector<char>{'h', 'i'});
    EXPECT_GT(dir_fsync_count(), before);
}
#endif

TEST_F(CheckpointTest, MissingFileIsUnmatched) {
    const auto loaded = load_journal(file("absent.ckpt"), journal_key{1, 2, 8});
    EXPECT_FALSE(loaded.matched);
    EXPECT_TRUE(loaded.records.empty());
    EXPECT_FALSE(loaded.dropped_tail);
}

TEST_F(CheckpointTest, JournalRoundTrip) {
    const std::string path = file("rt.ckpt");
    const journal_key key{0xabcdef, 10, sizeof(std::uint64_t)};
    {
        trial_journal j(path, key, /*interval_trials=*/1, /*interval_seconds=*/3600);
        std::vector<std::uint64_t> results(key.trials, 0);
        EXPECT_EQ(j.restore(results.data()).size(), key.trials);
        for (std::uint64_t i : {0u, 5u, 7u}) {
            const std::uint64_t payload = i * 0x0101010101010101ULL + 1;
            j.record(i, &payload);
        }
        j.commit();
        EXPECT_EQ(j.completed(), 3u);
    }
    EXPECT_FALSE(fs::exists(path + ".tmp"));

    const auto loaded = load_journal(path, key);
    EXPECT_TRUE(loaded.matched);
    EXPECT_FALSE(loaded.dropped_tail);
    ASSERT_EQ(loaded.records.size(), 3u);
    for (std::uint64_t i : {0u, 5u, 7u}) {
        const std::uint64_t expect = i * 0x0101010101010101ULL + 1;
        std::uint64_t got = 0;
        ASSERT_EQ(loaded.records.at(i).size(), sizeof(got));
        std::memcpy(&got, loaded.records.at(i).data(), sizeof(got));
        EXPECT_EQ(got, expect) << "trial " << i;
    }

    // A second journal resumes: restore fills the recovered slots and
    // reports exactly the complement as missing.
    trial_journal j2(path, key, 1, 3600);
    std::vector<std::uint64_t> results(key.trials, 0);
    const auto missing = j2.restore(results.data());
    EXPECT_EQ(missing, (std::vector<std::size_t>{1, 2, 3, 4, 6, 8, 9}));
    EXPECT_EQ(results[5], 5 * 0x0101010101010101ULL + 1);
    EXPECT_EQ(results[1], 0u);
}

TEST_F(CheckpointTest, KeyMismatchIsIgnored) {
    const std::string path = file("key.ckpt");
    const journal_key key{7, 4, sizeof(std::uint64_t)};
    {
        trial_journal j(path, key, 1, 3600);
        const std::uint64_t payload = 99;
        j.record(0, &payload);
        j.commit();
    }
    for (const journal_key& other : {journal_key{8, 4, 8}, journal_key{7, 5, 8},
                                    journal_key{7, 4, 4}}) {
        const auto loaded = load_journal(path, other);
        EXPECT_FALSE(loaded.matched);
        EXPECT_TRUE(loaded.records.empty());
    }
}

TEST_F(CheckpointTest, ResumeSkipsCompletedTrials) {
    mc_options opts;
    opts.trials = 100;
    opts.threads = 2;
    opts.seed = 42;
    opts.checkpoint_path = file("resume.ckpt");
    opts.checkpoint_interval = 1;
    std::atomic<std::size_t> calls{0};
    const auto fn = [&calls](std::size_t i, rng& g) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return g() ^ i;
    };
    const auto first = monte_carlo_collect(opts, fn);
    EXPECT_EQ(calls.load(), opts.trials);
    // Rerun: everything replays from the journal, nothing recomputes.
    const auto second = monte_carlo_collect(opts, fn);
    EXPECT_EQ(calls.load(), opts.trials);
    EXPECT_EQ(second, first);
    // And the replayed run matches a journal-free run bit for bit.
    mc_options plain = opts;
    plain.checkpoint_path.clear();
    EXPECT_EQ(monte_carlo_collect(plain, fn), first);
}

/// Ground truth for the corruption property tests below: a complete
/// journal plus the payload every index must decode to.
struct truth {
    std::vector<char> bytes;
    std::map<std::uint64_t, std::uint64_t> payloads;
    journal_key key;
};

truth make_truth(const std::string& path) {
    truth t;
    t.key = journal_key{0x5eed, 24, sizeof(std::uint64_t)};
    trial_journal j(path, t.key, 1, 3600);
    for (std::uint64_t i = 0; i < t.key.trials; ++i) {
        const std::uint64_t payload = (i + 1) * 0x9e3779b97f4a7c15ULL;
        t.payloads[i] = payload;
        j.record(i, &payload);
    }
    j.commit();
    t.bytes = read_all(path);
    return t;
}

/// Whatever survives loading must agree with the ground truth — corruption
/// may shrink the recovered set, never corrupt a value.
void expect_subset_of_truth(const journal_contents& loaded, const truth& t) {
    for (const auto& [index, payload] : loaded.records) {
        ASSERT_LT(index, t.key.trials);
        ASSERT_EQ(payload.size(), sizeof(std::uint64_t));
        std::uint64_t got = 0;
        std::memcpy(&got, payload.data(), sizeof(got));
        EXPECT_EQ(got, t.payloads.at(index)) << "index " << index;
    }
}

TEST_F(CheckpointTest, TruncationAtEveryByteOffsetNeverCorrupts) {
    const std::string path = file("trunc.ckpt");
    const truth t = make_truth(path);
    ASSERT_GT(t.bytes.size(), 100u);
    for (std::size_t len = 0; len < t.bytes.size(); ++len) {
        write_all(path, std::vector<char>(t.bytes.begin(),
                                          t.bytes.begin() + static_cast<std::ptrdiff_t>(len)));
        const auto loaded = load_journal(path, t.key);
        expect_subset_of_truth(loaded, t);
        // A cut on a record boundary just looks like an earlier flush; any
        // other cut must be reported so the driver can announce recovery.
        constexpr std::size_t kHeader = 36, kRecord = 8 + 8 + 4;
        const bool on_boundary = len >= kHeader && (len - kHeader) % kRecord == 0;
        if (loaded.matched) {
            EXPECT_EQ(loaded.dropped_tail, !on_boundary) << "len " << len;
        } else {
            EXPECT_TRUE(loaded.records.empty());
        }
    }
}

TEST_F(CheckpointTest, BitFlipAtEveryByteOffsetNeverCorrupts) {
    const std::string path = file("flip.ckpt");
    const truth t = make_truth(path);
    for (std::size_t off = 0; off < t.bytes.size(); ++off) {
        std::vector<char> mutated = t.bytes;
        mutated[off] = static_cast<char>(mutated[off] ^ 0x04);
        write_all(path, mutated);
        const auto loaded = load_journal(path, t.key);
        // CRC-32 detects every single-bit error: the flipped record (or the
        // header) must drop out; everything recovered is still exact.
        expect_subset_of_truth(loaded, t);
        EXPECT_LT(loaded.records.size(), t.key.trials);
        if (!loaded.matched) {
            EXPECT_TRUE(loaded.records.empty());
        }
    }
}

TEST_F(CheckpointTest, ResumeFromTruncatedJournalRecomputesTail) {
    mc_options opts;
    opts.trials = 40;
    opts.threads = 1;
    opts.seed = 3;
    opts.checkpoint_path = file("tail.ckpt");
    opts.checkpoint_interval = 1;
    const auto fn = [](std::size_t i, rng& g) { return g() + i; };
    const auto reference = monte_carlo_collect(opts, fn);
    // Chop the journal mid-record; a resume must still match the reference.
    auto bytes = read_all(opts.checkpoint_path);
    bytes.resize(bytes.size() / 2 + 3);
    write_all(opts.checkpoint_path, bytes);
    EXPECT_EQ(monte_carlo_collect(opts, fn), reference);
    // The rewritten journal is whole again.
    const auto loaded =
        load_journal(opts.checkpoint_path,
                     journal_key{opts.seed, opts.trials, sizeof(reference[0])});
    EXPECT_TRUE(loaded.matched);
    EXPECT_EQ(loaded.records.size(), opts.trials);
}

}  // namespace
}  // namespace levy::sim
