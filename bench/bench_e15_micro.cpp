// E15 — engineering micro-benchmarks (Google Benchmark).
//
// Throughput of the primitives everything else is built on: the exact Zipf
// sampler, the jump distribution, ring sampling, direct-path stepping, the
// walk engine's candidate replay and walker first visit, and whole-process
// stepping for walks and flights. These numbers bound how large an (ℓ, k,
// trials) grid the experiment binaries can afford.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/simple_random_walk.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/sim/monte_carlo.h"
#include "src/stats/table.h"
#include "src/core/levy_flight.h"
#include "src/core/levy_walk.h"
#include "src/core/strategy.h"
#include "src/grid/direct_path.h"
#include "src/grid/ring.h"
#include "src/rng/jump_distribution.h"
#include "src/rng/zipf.h"
#include "src/sim/walk_engine.h"

namespace {

using namespace levy;

void BM_Xoshiro(benchmark::State& state) {
    rng g = rng::seeded(1);
    for (auto _ : state) benchmark::DoNotOptimize(g());
}
BENCHMARK(BM_Xoshiro);

void BM_ZipfSample(benchmark::State& state) {
    const zipf_sampler z(state.range(0) / 100.0);
    rng g = rng::seeded(2);
    for (auto _ : state) benchmark::DoNotOptimize(z(g));
}
BENCHMARK(BM_ZipfSample)->Arg(150)->Arg(250)->Arg(350);  // α = 1.5, 2.5, 3.5

// The same draws with the pow-free head built, as sim::dist_cache builds it
// for an exponent requested twice (fixed-α trials, sweeps, levyserve). The
// values drawn are identical to BM_ZipfSample's.
void BM_ZipfSampleHead(benchmark::State& state) {
    zipf_sampler z(state.range(0) / 100.0);
    z.build_head();
    rng g = rng::seeded(2);
    for (auto _ : state) benchmark::DoNotOptimize(z(g));
}
BENCHMARK(BM_ZipfSampleHead)->Arg(150)->Arg(250)->Arg(350);

// What the head costs to build: once per exponent a run reuses (per
// thread), and once per draw in a sweep of fresh exponents.
void BM_ZipfBuildHead(benchmark::State& state) {
    const zipf_sampler proto(state.range(0) / 100.0);
    for (auto _ : state) {
        zipf_sampler z = proto;
        z.build_head();
        benchmark::DoNotOptimize(z);
    }
}
BENCHMARK(BM_ZipfBuildHead)->Arg(150)->Arg(250)->Arg(350);

void BM_JumpSample(benchmark::State& state) {
    const jump_distribution d(2.5);
    rng g = rng::seeded(3);
    for (auto _ : state) benchmark::DoNotOptimize(d.sample(g));
}
BENCHMARK(BM_JumpSample);

void BM_JumpSampleCapped(benchmark::State& state) {
    const jump_distribution d(2.5);
    rng g = rng::seeded(4);
    for (auto _ : state) benchmark::DoNotOptimize(d.sample_capped(g, 1000));
}
BENCHMARK(BM_JumpSampleCapped);

void BM_RingSample(benchmark::State& state) {
    rng g = rng::seeded(5);
    for (auto _ : state) benchmark::DoNotOptimize(sample_ring(origin, state.range(0), g));
}
BENCHMARK(BM_RingSample)->Arg(10)->Arg(10000);

void BM_DirectPathStep(benchmark::State& state) {
    rng g = rng::seeded(6);
    direct_path_stepper s(origin, {1 << 20, 1 << 19});
    for (auto _ : state) {
        if (s.done()) s = direct_path_stepper(origin, {1 << 20, 1 << 19});
        // A throwaway stream: no replay contract applies.
        benchmark::DoNotOptimize(s.advance(g));
    }
}
BENCHMARK(BM_DirectPathStep);

// A walk engine candidate replay (sim/walk_engine.cpp's replay_x): a fresh
// per-phase substream, a stepper from the origin toward (2i*, i*), driven
// to step i*. Arg: i*.
void BM_CandidateReplay(benchmark::State& state) {
    const auto istar = static_cast<std::int64_t>(state.range(0));
    const rng main = rng::seeded(10);
    std::uint64_t phase = 0;
    for (auto _ : state) {
        rng path = main.substream(++phase);
        direct_path_stepper s(origin, {2 * istar, istar});
        for (std::int64_t j = 0; j < istar; ++j) (void)s.advance(path);
        benchmark::DoNotOptimize(s.position().x);
    }
}
BENCHMARK(BM_CandidateReplay)->Arg(4)->Arg(32);

// Walker first visits at perfbench's swarm shape (α = 2, cap 64, target
// (64, 0), budget 2048): spawn_range over 2^17 ids under a planted best at
// time 64 + s, its winner past the range (every walker may still tie and
// win) or walker 0 (every walker loses a tie). Args: s, epoch quantum,
// winner past the range (1) or 0 (0). Reports time per walker id.
void BM_FirstVisit(benchmark::State& state) {
    constexpr std::size_t kIds = std::size_t{1} << 17;
    const point target{64, 0};
    const sim::engine_options opts{.epoch_steps = static_cast<std::uint64_t>(state.range(1))};
    const sim::best_state planted{.hit = true,
                                  .time = 64 + static_cast<std::uint64_t>(state.range(0)),
                                  .winner = state.range(2) != 0 ? kIds : 0};
    const exponent_strategy strategy = fixed_exponent(2.0);
    const rng trial = rng::seeded(11);
    sim::dist_cache dists;
    dists.reset(64);
    sim::walker_block block;
    block.reserve(kIds);
    for (auto _ : state) {
        block.clear();
        sim::best_state best = planted;
        block.spawn_range(0, kIds, strategy, trial, dists, opts, target, 2048, best);
        benchmark::DoNotOptimize(best);
    }
    state.counters["per_walker"] = benchmark::Counter(
        static_cast<double>(kIds),
        benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FirstVisit)
    ->Args({0, 0, 1})
    ->Args({1, 0, 1})
    ->Args({8, 0, 1})
    ->Args({0, 32, 1})
    ->Args({1, 32, 1})
    ->Args({8, 32, 1})
    ->Args({0, 0, 0})
    ->Unit(benchmark::kMillisecond);

void BM_LevyWalkStep(benchmark::State& state) {
    levy_walk w(state.range(0) / 100.0, rng::seeded(7));
    for (auto _ : state) benchmark::DoNotOptimize(w.step());
}
BENCHMARK(BM_LevyWalkStep)->Arg(150)->Arg(250)->Arg(350);

void BM_LevyFlightStep(benchmark::State& state) {
    levy_flight f(2.5, rng::seeded(8));
    for (auto _ : state) benchmark::DoNotOptimize(f.step());
}
BENCHMARK(BM_LevyFlightStep);

void BM_SimpleRandomWalkStep(benchmark::State& state) {
    baselines::simple_random_walk w(rng::seeded(9));
    for (auto _ : state) benchmark::DoNotOptimize(w.step());
}
BENCHMARK(BM_SimpleRandomWalkStep);

/// Records every run as a table row, so E15's numbers land in the same
/// structured BENCH_E15.json schema as the run_main-based benches (Google
/// Benchmark owns main-loop control here, so E15 cannot go through
/// bench_util's run_main), and forwards every report to the display
/// reporter that --benchmark_format and --benchmark_color select.
class capturing_reporter : public benchmark::BenchmarkReporter {
public:
    bool ReportContext(const Context& context) override {
        return display_->ReportContext(context);
    }

    void ReportRuns(const std::vector<Run>& report) override {
        for (const Run& run : report) {
            rows_.push_back({run.benchmark_name(), std::to_string(run.iterations),
                             std::to_string(run.GetAdjustedRealTime()),
                             std::to_string(run.GetAdjustedCPUTime())});
        }
        display_->ReportRuns(report);
    }

    void Finalize() override { display_->Finalize(); }

    [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const { return rows_; }

private:
    // One library-owned instance per process: never deleted here. Built
    // after benchmark::Initialize has parsed the flags it reads.
    benchmark::BenchmarkReporter* display_ = benchmark::CreateDefaultDisplayReporter();
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace

int main(int argc, char** argv) {
    // Peel off the levy observability flags before Google Benchmark sees
    // (and rejects) them; everything else passes through untouched.
    std::string json_path;
    std::string trace_path;
    std::vector<char*> passthrough;
    std::vector<std::pair<std::string, std::string>> options;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value_of = [&](std::string_view flag) -> std::string {
            if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
                arg[flag.size()] == '=') {
                return std::string(arg.substr(flag.size() + 1));
            }
            return {};
        };
        if (auto v = value_of("--json"); !v.empty()) {
            json_path = v == "-" ? std::string{} : v;
            options.emplace_back("json", v);
        } else if (auto d = value_of("--json-dir"); !d.empty()) {
            if (json_path.empty()) json_path = d + "/BENCH_E15.json";
            options.emplace_back("json-dir", d);
        } else if (auto t = value_of("--trace"); !t.empty()) {
            trace_path = t;
            options.emplace_back("trace", t);
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) return 1;

    const bool observing = !json_path.empty() || !trace_path.empty();
    if (observing) levy::obs::start_span_collection();
    if (!json_path.empty()) levy::obs::begin_report("E15", std::move(options));

    capturing_reporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (observing) levy::obs::stop_span_collection();
    if (!json_path.empty()) {
        // Feed captured runs through the table observer so they land as the
        // report's rows; a string sink keeps stdout byte-identical.
        levy::stats::text_table table({"benchmark", "iterations", "real_ns", "cpu_ns"});
        for (const auto& row : reporter.rows()) table.add_row(row);
        std::ostringstream sink;
        table.print(sink);
        levy::obs::write_report(json_path, levy::sim::metrics_snapshot());
        levy::obs::end_report();
        std::cerr << "E15: wrote " << json_path << '\n';
    }
    if (!trace_path.empty()) {
        levy::obs::write_chrome_trace(trace_path);
        std::cerr << "E15: wrote " << trace_path << '\n';
    }
    return 0;
}
