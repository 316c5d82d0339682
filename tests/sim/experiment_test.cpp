#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/experiment.h"

namespace levy::sim {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& args) {
    std::vector<char*> argv;
    argv.push_back(nullptr);  // program name slot
    static std::string prog = "test";
    argv[0] = prog.data();
    for (auto& a : args) argv.push_back(a.data());
    return argv;
}

TEST(RunOptions, DefaultsWhenNoArgs) {
    std::vector<std::string> args;
    auto argv = argv_of(args);
    const auto opts = parse_run_options(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opts.trials, 0u);
    EXPECT_DOUBLE_EQ(opts.scale, 1.0);
    EXPECT_EQ(opts.threads, 0u);
    EXPECT_EQ(opts.chunk, 0u);
    EXPECT_EQ(opts.seed, kDefaultSeed);
}

TEST(RunOptions, ParsesAllFlags) {
    std::vector<std::string> args = {"--trials=500", "--scale=2.5", "--threads=3",
                                     "--chunk=16",   "--seed=777",
                                     "--checkpoint=/tmp/ckpt", "--checkpoint-interval=17",
                                     "--max-steps-per-trial=4096"};
    auto argv = argv_of(args);
    const auto opts = parse_run_options(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opts.trials, 500u);
    EXPECT_DOUBLE_EQ(opts.scale, 2.5);
    EXPECT_EQ(opts.threads, 3u);
    EXPECT_EQ(opts.chunk, 16u);
    EXPECT_EQ(opts.seed, 777u);
    EXPECT_EQ(opts.checkpoint_dir, "/tmp/ckpt");
    EXPECT_EQ(opts.checkpoint_interval, 17u);
    EXPECT_EQ(opts.max_trial_steps, 4096u);
}

TEST(RunOptions, ParsesProgressAndMetricsPort) {
    std::vector<std::string> args = {"--progress", "--metrics-port=9464"};
    auto argv = argv_of(args);
    const auto opts = parse_run_options(static_cast<int>(argv.size()), argv.data());
    EXPECT_DOUBLE_EQ(opts.progress_seconds, 2.0);  // bare flag: default cadence
    EXPECT_EQ(opts.metrics_port, 9464);

    std::vector<std::string> args2 = {"--progress=0.5", "--metrics-port=0"};
    auto argv2 = argv_of(args2);
    const auto opts2 = parse_run_options(static_cast<int>(argv2.size()), argv2.data());
    EXPECT_DOUBLE_EQ(opts2.progress_seconds, 0.5);
    EXPECT_EQ(opts2.metrics_port, 0);  // 0 = ephemeral port

    std::vector<std::string> none;
    auto argv3 = argv_of(none);
    const auto opts3 = parse_run_options(static_cast<int>(argv3.size()), argv3.data());
    EXPECT_DOUBLE_EQ(opts3.progress_seconds, 0.0);  // off by default
    EXPECT_EQ(opts3.metrics_port, -1);
}

TEST(RunOptions, RejectsBadProgressAndMetricsPort) {
    for (const char* bad : {"--progress=0", "--progress=-1", "--metrics-port=65536",
                            "--metrics-port=-2", "--metrics-port=x"}) {
        std::vector<std::string> args = {bad};
        auto argv = argv_of(args);
        EXPECT_THROW((void)parse_run_options(static_cast<int>(argv.size()), argv.data()),
                     std::invalid_argument)
            << bad;
    }
    std::vector<std::string> dup = {"--progress", "--progress=3"};
    auto argv = argv_of(dup);
    EXPECT_THROW((void)parse_run_options(static_cast<int>(argv.size()), argv.data()),
                 std::invalid_argument);
}

TEST(RunOptions, McForwardsChunk) {
    run_options opts;
    opts.chunk = 32;
    EXPECT_EQ(opts.mc(10).chunk, 32u);
}

TEST(FormatThroughput, EmptyWithoutTrials) {
    EXPECT_TRUE(format_throughput(run_metrics{}).empty());
}

TEST(FormatThroughput, MentionsTrialsAndWorkers) {
    run_metrics m;
    m.trials = 1000;
    m.wall_seconds = 2.0;
    m.busy_seconds = 3.0;
    m.max_workers = 2;
    const std::string line = format_throughput(m);
    EXPECT_NE(line.find("1000 trials"), std::string::npos);
    EXPECT_NE(line.find("500 trials/s"), std::string::npos);
    EXPECT_NE(line.find("2 workers"), std::string::npos);
    EXPECT_NE(line.find("75% utilization"), std::string::npos);
}

TEST(RunOptions, RejectsUnknownFlag) {
    // Removed flags are rejected like any other unknown one.
    for (const char* bad : {"--bogus=1", "--csv=x.csv", "--sync-rounds=2"}) {
        std::vector<std::string> args = {bad};
        auto argv = argv_of(args);
        EXPECT_THROW(parse_run_options(static_cast<int>(argv.size()), argv.data()),
                     std::invalid_argument)
            << bad;
    }
}

TEST(RunOptions, RejectsMalformedNumbers) {
    std::vector<std::string> args = {"--trials=abc"};
    auto argv = argv_of(args);
    EXPECT_THROW(parse_run_options(static_cast<int>(argv.size()), argv.data()),
                 std::invalid_argument);
}

TEST(RunOptions, RejectsScaleNotPositiveAndFinite) {
    // from_chars parses inf and nan; they must meet the usage error too,
    // not reach a bench's integer conversions.
    for (const char* bad : {"--scale=0", "--scale=-1.5", "--scale=inf", "--scale=infinity",
                            "--scale=-inf", "--scale=nan"}) {
        std::vector<std::string> args = {bad};
        auto argv = argv_of(args);
        EXPECT_THROW(parse_run_options(static_cast<int>(argv.size()), argv.data()),
                     std::invalid_argument)
            << bad;
    }
}

TEST(Scaled, TruncatesToAtLeastOne) {
    EXPECT_EQ(scaled(192, 0.25), 48);
    EXPECT_EQ(scaled(192, 1.0), 192);
    EXPECT_EQ(scaled(10, 0.05), 1);
    EXPECT_EQ(scaled(1, 0x1.0p62), std::int64_t{1} << 62);
}

TEST(Scaled, ThrowsWhenTheProductLeavesInt64) {
    // A finite --scale can still overflow a dimension: 2^63 and beyond
    // have no int64, so converting them would be undefined.
    EXPECT_THROW((void)scaled(1, 0x1.0p63), std::invalid_argument);
    EXPECT_THROW((void)scaled(192, 1e300), std::invalid_argument);
    EXPECT_THROW((void)scaled(-192, 1e300), std::invalid_argument);
    EXPECT_THROW((void)scaled(192, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_THROW((void)scaled(192, std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
}

TEST(RunOptions, RejectsDuplicateFlags) {
    std::vector<std::string> args = {"--trials=10", "--trials=20"};
    auto argv = argv_of(args);
    EXPECT_THROW(parse_run_options(static_cast<int>(argv.size()), argv.data()),
                 std::invalid_argument);
}

TEST(RunOptions, RejectsEmptyValue) {
    std::vector<std::string> args = {"--seed="};
    auto argv = argv_of(args);
    EXPECT_THROW(parse_run_options(static_cast<int>(argv.size()), argv.data()),
                 std::invalid_argument);
}

TEST(RunOptions, RejectsZeroCheckpointInterval) {
    std::vector<std::string> args = {"--checkpoint-interval=0"};
    auto argv = argv_of(args);
    EXPECT_THROW(parse_run_options(static_cast<int>(argv.size()), argv.data()),
                 std::invalid_argument);
}

TEST(RunOptions, ParsesServeFlags) {
    std::vector<std::string> args = {"--deadline-ms=250", "--queue-capacity=32"};
    auto argv = argv_of(args);
    const auto opts = parse_run_options(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opts.deadline_ms, 250u);
    EXPECT_EQ(opts.queue_capacity, 32u);

    std::vector<std::string> none;
    auto argv2 = argv_of(none);
    const auto defaults = parse_run_options(static_cast<int>(argv2.size()), argv2.data());
    EXPECT_EQ(defaults.deadline_ms, 0u);      // 0 = server default
    EXPECT_EQ(defaults.queue_capacity, 0u);
}

// Each rejection must name the offending flag — a 2 a.m. operator staring
// at a failed service start should not have to guess which knob was wrong.
TEST(RunOptions, RejectsNonPositiveDeadlineMsNamingTheFlag) {
    for (const char* bad : {"--deadline-ms=0", "--deadline-ms=-5"}) {
        std::vector<std::string> args = {bad};
        auto argv = argv_of(args);
        try {
            (void)parse_run_options(static_cast<int>(argv.size()), argv.data());
            FAIL() << bad << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("--deadline-ms"), std::string::npos)
                << bad << " -> " << e.what();
        }
    }
}

TEST(RunOptions, RejectsNonPositiveQueueCapacityNamingTheFlag) {
    for (const char* bad : {"--queue-capacity=0", "--queue-capacity=-5"}) {
        std::vector<std::string> args = {bad};
        auto argv = argv_of(args);
        try {
            (void)parse_run_options(static_cast<int>(argv.size()), argv.data());
            FAIL() << bad << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("--queue-capacity"), std::string::npos)
                << bad << " -> " << e.what();
        }
    }
}

TEST(RunOptions, DescribeIncludesServeFlagsOnlyWhenSet) {
    std::vector<std::string> none;
    auto argv = argv_of(none);
    const auto defaults = parse_run_options(static_cast<int>(argv.size()), argv.data());
    for (const auto& [key, value] : describe_options(defaults)) {
        EXPECT_NE(key, "deadline-ms") << value;
        EXPECT_NE(key, "queue-capacity") << value;
    }

    std::vector<std::string> args = {"--deadline-ms=100", "--queue-capacity=8"};
    auto argv2 = argv_of(args);
    const auto opts = parse_run_options(static_cast<int>(argv2.size()), argv2.data());
    bool saw_deadline = false;
    bool saw_capacity = false;
    for (const auto& [key, value] : describe_options(opts)) {
        if (key == "deadline-ms") {
            saw_deadline = true;
            EXPECT_EQ(value, "100");
        }
        if (key == "queue-capacity") {
            saw_capacity = true;
            EXPECT_EQ(value, "8");
        }
    }
    EXPECT_TRUE(saw_deadline);
    EXPECT_TRUE(saw_capacity);
}

TEST(RunOptions, HelpThrowsUsage) {
    std::vector<std::string> args = {"--help"};
    auto argv = argv_of(args);
    EXPECT_THROW(parse_run_options(static_cast<int>(argv.size()), argv.data()),
                 std::invalid_argument);
}

TEST(RunOptions, McUsesDefaultTrialsUnlessOverridden) {
    run_options opts;
    EXPECT_EQ(opts.mc(1234).trials, 1234u);
    opts.trials = 99;
    EXPECT_EQ(opts.mc(1234).trials, 99u);
}

TEST(RunOptions, McSaltChangesSeed) {
    run_options opts;
    EXPECT_NE(opts.mc(10, 1).seed, opts.mc(10, 2).seed);
    EXPECT_EQ(opts.mc(10, 0).seed, opts.seed);
}

TEST(RunOptions, McDerivesPerPhaseCheckpointPath) {
    run_options opts;
    EXPECT_TRUE(opts.mc(10).checkpoint_path.empty());
    opts.checkpoint_dir = "/tmp/ckpts";
    opts.checkpoint_interval = 11;
    const auto a = opts.mc(10, /*salt=*/1);
    EXPECT_EQ(a.checkpoint_path.rfind("/tmp/ckpts/mc-", 0), 0u);
    EXPECT_EQ(a.checkpoint_interval, 11u);
    // Distinct phases (salt or trial count) journal to distinct files.
    EXPECT_NE(a.checkpoint_path, opts.mc(10, /*salt=*/2).checkpoint_path);
    EXPECT_NE(a.checkpoint_path, opts.mc(20, /*salt=*/1).checkpoint_path);
    // The same phase maps to the same file on a rerun.
    EXPECT_EQ(a.checkpoint_path, opts.mc(10, /*salt=*/1).checkpoint_path);
}

}  // namespace
}  // namespace levy::sim
