// Unit tests for levylint's semantic index and cross-TU call-graph linker
// (tools/levylint/index.h, callgraph.h): call resolution with qualifier
// suffixes, parameter-name recovery, task-lambda attribution through the
// parallel fixpoint, and the unanimity rule for unordered-returning callees.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tools/levylint/callgraph.h"
#include "tools/levylint/index.h"
#include "tools/levylint/lexer.h"

namespace {

using namespace levylint;

project_model model_of(std::vector<std::pair<std::string, std::string>> files) {
    std::vector<tu_index> tus;
    tus.reserve(files.size());
    for (auto& [path, src] : files) {
        tus.push_back(build_index(path, lex(src)));
    }
    return link(std::move(tus));
}

/// The call in `tu` whose callee is `name`; -1 when absent.
int call_index(const project_model& m, int tu, const std::string& name) {
    for (std::size_t c = 0; c < m.tus[tu].calls.size(); ++c) {
        if (m.tus[tu].calls[c].callee == name) return static_cast<int>(c);
    }
    return -1;
}

TEST(LevylintIndex, RecoversParameterNames) {
    const project_model m = model_of({{"a.cpp", R"src(
        struct rng { double uniform(); };
        double consume(rng s);
        double observe(const rng& g);
        void drive(rng& g, int n = 3);
    )src"}});
    ASSERT_EQ(m.tus[0].funcs.size(), 4u);  // uniform + the three free functions

    const auto& consume = m.tus[0].funcs[1];
    ASSERT_EQ(consume.name, "consume");
    EXPECT_EQ(consume.params, (std::vector<std::string>{"s"}));

    const auto& observe = m.tus[0].funcs[2];
    ASSERT_EQ(observe.name, "observe");
    EXPECT_EQ(observe.params, (std::vector<std::string>{"g"}));

    const auto& drive = m.tus[0].funcs[3];
    ASSERT_EQ(drive.name, "drive");
    EXPECT_EQ(drive.params, (std::vector<std::string>{"g", "n"}));  // default argument dropped
}

TEST(LevylintCallgraph, ResolvesCrossTuCallsOnQualifierSuffix) {
    const project_model m = model_of({
        {"src/sim/spawn.h", R"src(
            struct rng;
            namespace levy::sim {
            int spawn(const rng& g);
            }
        )src"},
        {"src/core/run.cpp", R"src(
            struct rng { double uniform(); };
            int runner(rng& g) { return sim::spawn(g); }
        )src"},
    });
    const int caller_tu = m.tu_of("src/core/run.cpp");
    ASSERT_GE(caller_tu, 0);
    const int c = call_index(m, caller_tu, "spawn");
    ASSERT_GE(c, 0);
    ASSERT_EQ(m.call_targets[caller_tu][c].size(), 1u);
    const func_info& callee = m.func(m.call_targets[caller_tu][c][0]);
    EXPECT_EQ(callee.qname, "levy::sim::spawn");
    EXPECT_EQ(callee.params, (std::vector<std::string>{"g"}));
}

TEST(LevylintCallgraph, MismatchedQualifiersAndStdStayUnresolved) {
    const project_model m = model_of({
        {"lib.h", R"src(
            namespace levy::sim {
            void spawn(int n);
            }
        )src"},
        {"use.cpp", R"src(
            void misqualified() { torus::spawn(3); }
            void standard() { std::sort(3); }
        )src"},
    });
    const int tu = m.tu_of("use.cpp");
    const int mis = call_index(m, tu, "spawn");
    ASSERT_GE(mis, 0);
    EXPECT_TRUE(m.call_targets[tu][mis].empty());  // torus:: is not sim::
    const int srt = call_index(m, tu, "sort");
    ASSERT_GE(srt, 0);
    EXPECT_TRUE(m.call_targets[tu][srt].empty());  // std:: is never ours
}

TEST(LevylintCallgraph, MarksInlineAndBoundNameTaskLambdas) {
    const project_model m = model_of({{"tasks.cpp", R"src(
        template <class F>
        void parallel_for(unsigned long long n, unsigned threads, F&& fn);

        void run_tasks(unsigned threads) {
            auto helper = [](int x) { return x + 1; };
            auto run_one = [&](unsigned long long i) { (void)i; };
            parallel_for(10, threads, run_one);
            parallel_for(10, threads, [&](unsigned long long i) { (void)i; });
            helper(1);
        }
    )src"}});
    const int tu = m.tu_of("tasks.cpp");
    ASSERT_EQ(m.tus[tu].lambdas.size(), 3u);
    int tasks = 0;
    for (std::size_t l = 0; l < m.tus[tu].lambdas.size(); ++l) {
        if (m.lambda_is_task[tu][l]) ++tasks;
        if (m.tus[tu].lambdas[l].bound_name == "helper") {
            EXPECT_FALSE(m.lambda_is_task[tu][l]);  // never reaches the pool
        }
        if (m.tus[tu].lambdas[l].bound_name == "run_one") {
            EXPECT_TRUE(m.lambda_is_task[tu][l]);  // bound name passed to the pool
        }
    }
    EXPECT_EQ(tasks, 2);  // run_one + the inline lambda
}

TEST(LevylintCallgraph, PropagatesTaskMarkingThroughForwardedParams) {
    // The monte_carlo_collect(trial_fn) pattern: a lambda handed to a
    // *wrapper* runs in parallel because the wrapper invokes its parameter
    // inside a pool task — across TU boundaries, to a fixpoint. The second
    // wrapper has monte_carlo_collect's shape: a trailing return type whose
    // decltype holds a brace-initialized argument, and a bound task lambda.
    const project_model m = model_of({
        {"wrap.cpp", R"src(
            template <class F>
            void parallel_for(unsigned long long n, unsigned threads, F&& fn);

            template <class F>
            void collect(unsigned long long n, unsigned threads, F trial) {
                parallel_for(n, threads, [&](unsigned long long i) { trial(i); });
            }
        )src"},
        {"monte_carlo.h", R"src(
            template <class F>
            auto collect_trials(const mc_options& opts, F&& trial_fn)
                -> std::vector<decltype(trial_fn(std::size_t{}, std::declval<rng&>()))> {
                using result_t = decltype(trial_fn(std::size_t{}, std::declval<rng&>()));
                std::vector<result_t> results(opts.trials);
                const auto run_one = [&](std::size_t i) {
                    rng stream = master.substream(i);
                    results[i] = trial_fn(i, stream);
                };
                parallel_for(opts.trials, opts.threads, run_one, opts.chunk);
                return results;
            }
        )src"},
        {"use.cpp", R"src(
            template <class F>
            void collect(unsigned long long n, unsigned threads, F trial);

            void estimate(unsigned threads, const mc_options& opts) {
                collect(100, threads, [&](unsigned long long i) { (void)i; });
                (void)collect_trials(opts, [&](std::size_t i, rng& g) { return i; });
            }
        )src"},
    });
    const int tu = m.tu_of("use.cpp");
    ASSERT_EQ(m.tus[tu].lambdas.size(), 2u);
    EXPECT_TRUE(m.lambda_is_task[tu][0]);
    EXPECT_TRUE(m.lambda_is_task[tu][1]);
}

TEST(LevylintCallgraph, UnorderedCalleesRequireUnanimity) {
    const project_model m = model_of({
        {"maps.h", R"src(
            std::unordered_map<int, int> census();
            std::vector<int> census(int shard);
            std::unordered_set<int> visited();
        )src"},
        {"use.cpp", R"src(
            void consume() {
                (void)census();
                (void)visited();
            }
        )src"},
    });
    const int tu = m.tu_of("use.cpp");
    ASSERT_GE(tu, 0);
    // visited() is unanimously unordered; census() has a vector overload,
    // so the linker must refuse to classify it.
    EXPECT_EQ(m.unordered_call_names[tu].count("visited"), 1u);
    EXPECT_EQ(m.unordered_call_names[tu].count("census"), 0u);
}

}  // namespace
