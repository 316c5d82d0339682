// sweep_uncapped — the E7 sweep shape: ℓ = 128, k ∈ {2, 8, 32, 128, 512},
// each k at α*(k, ℓ), uncapped jumps (Devroye rejection), the in-memory
// batch engine, and every phase journaled to a fresh checkpoint directory.
// A batch is one fixed trial set (kTrialsPerK trials per k); the run repeats
// batches on fresh seeds until its time is up.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "batch.h"
#include "src/core/strategy.h"
#include "src/obs/trace.h"
#include "src/sim/checkpoint.h"

namespace perfbench {

using namespace levy;

namespace {

constexpr std::size_t kTrialsPerK = 24;
/// Trials whose index is a multiple of this are re-run through the scalar
/// engine (and, when tracing, through walker_block).
constexpr std::size_t kCheckEvery = 8;
/// Short warm-up trials per config per worker in the setup.
constexpr std::size_t kWarmTrials = 16;

struct sweep_shape {
    std::int64_t ell = 128;
    std::vector<std::size_t> ks = {2, 8, 32, 128, 512};
    std::size_t trials_per_k = kTrialsPerK;
};

sim::parallel_walk_config sweep_config(std::size_t k, std::int64_t ell) {
    sim::parallel_walk_config cfg;
    cfg.k = k;
    const double alpha = optimal_alpha(static_cast<double>(k), static_cast<double>(ell));
    cfg.strategy = fixed_exponent(alpha);
    cfg.ell = ell;
    // E7's generous budget, 32·(ℓ²/k + ℓ), so censoring stays rare.
    cfg.budget = static_cast<std::uint64_t>(
        32.0 * (static_cast<double>(ell) * static_cast<double>(ell) / static_cast<double>(k) +
                static_cast<double>(ell)));
    cfg.cap = kNoCap;
    return cfg;
}

/// Batch `batch`'s phases, one per k, seeded from (seed, batch, k). With a
/// non-empty `journal_dir` every phase journals to its own file there.
std::vector<phase_plan> batch_plan(const sweep_shape& shape, std::uint64_t seed,
                                   std::size_t batch, unsigned threads,
                                   const std::string& journal_dir) {
    std::vector<phase_plan> plans;
    for (const std::size_t k : shape.ks) {
        phase_plan p;
        p.cfg = sweep_config(k, shape.ell);
        p.mc.trials = shape.trials_per_k;
        p.mc.threads = threads;
        p.mc.seed = derive_seed(seed, batch, k);
        if (!journal_dir.empty()) {
            // The default trial interval (256) exceeds a phase, so each phase
            // flushes once, at commit; the time trigger is disabled so the
            // flush count stays exact. Few fsyncs also keep disk latency, which
            // varies with other users of the disk, from dominating the sweep.
            p.mc.checkpoint_path = journal_dir + "/k" + std::to_string(k) + ".ckpt";
            p.mc.checkpoint_seconds = 1e9;
        }
        plans.push_back(std::move(p));
    }
    return plans;
}

struct batch_record {
    std::vector<phase_plan> plans;
    std::vector<phase_run> runs;
    double wall_s = 0.0;
    std::size_t trials = 0;
};

batch_record run_batch(std::vector<phase_plan> plans) {
    obs::span span("sweep.batch");
    batch_record b;
    b.plans = std::move(plans);
    const double t0 = now_s();
    for (const phase_plan& p : b.plans) {
        b.runs.push_back(run_phase(p));
        b.trials += p.mc.trials;
    }
    b.wall_s = now_s() - t0;
    return b;
}

/// Journal on disk must hold exactly the results the driver returned.
bool journal_matches(const phase_plan& p, const phase_run& r) {
    const sim::journal_contents j = sim::load_journal(
        p.mc.checkpoint_path,
        sim::journal_key{p.mc.seed, p.mc.trials, static_cast<std::uint32_t>(sizeof(parallel_result))});
    if (!j.matched || j.dropped_tail || j.records.size() != p.mc.trials) return false;
    for (const auto& [index, payload] : j.records) {
        if (std::memcmp(payload.data(), &r.results[index], sizeof(parallel_result)) != 0) return false;
    }
    return true;
}

/// Warm every worker: spawn the pool and run short trials of every config
/// on each thread, so the thread-local engines' distribution caches and SoA
/// buffers exist before timing starts.
void warm_up(const sweep_shape& shape, std::uint64_t seed, unsigned threads) {
    std::vector<sim::parallel_walk_config> cfgs;
    for (const std::size_t k : shape.ks) cfgs.push_back(sweep_config(k, shape.ell));
    const std::size_t n = kWarmTrials * cfgs.size() * sim::resolve_threads(threads);
    (void)sim::parallel_for(
        n, threads,
        [&](std::size_t i) {
            sim::parallel_walk_config cfg = cfgs[i % cfgs.size()];
            cfg.budget = cfg.budget / 16 + 1;
            (void)sim::parallel_walk_trial(cfg, rng::seeded(derive_seed(seed, 0xfeed, i)));
        },
        /*chunk=*/1);
}

}  // namespace

outcome run_sweep_uncapped(const run_args& args) {
    outcome out;
    const sweep_shape shape;
    const unsigned threads = sim::resolve_threads(args.threads);

    // --- Setup (once per process, so cold: the pool's first spawn) ----------
    const double setup0 = now_s();
    std::filesystem::create_directories(args.work_dir + "/journals");
    warm_up(shape, derive_seed(args.seed, 0x5e7), threads);
    put(out.end_to_end, "setup_s", now_s() - setup0);
    if (args.setup_only) return out;

    // --- Timed batches ---------------------------------------------------------
    // With tracing, the first half runs untraced and the second traced; the
    // throughput ratio of the halves is the tracing overhead.
    sim::reset_metrics();
    std::vector<batch_record> batches;
    std::vector<double> rates;
    std::vector<double> untraced_rates;
    const std::uint64_t flushes0 = registry_counter("checkpoint.flushes");
    const std::uint64_t bytes0 = registry_counter("checkpoint.bytes");
    std::uint64_t batch0_flushes = 0;
    std::uint64_t batch0_bytes = 0;
    const double start = now_s();
    for (std::size_t b = 0;; ++b) {
        if (args.trace && !obs::collecting_spans() && now_s() - start >= args.seconds / 2) {
            untraced_rates = rates;
            rates.clear();
            obs::start_span_collection();
        }
        const std::string dir = args.work_dir + "/journals/batch" + std::to_string(b);
        std::filesystem::create_directories(dir);
        batches.push_back(run_batch(batch_plan(shape, args.seed, b, threads, dir)));
        rates.push_back(static_cast<double>(batches.back().trials) / batches.back().wall_s);
        if (b == 0) {
            batch0_flushes = registry_counter("checkpoint.flushes") - flushes0;
            batch0_bytes = registry_counter("checkpoint.bytes") - bytes0;
        }
        const bool enough = args.trace ? obs::collecting_spans() && rates.size() >= 2
                                       : batches.size() >= 3;
        if (now_s() - start >= args.seconds && enough) break;
    }
    const sim::run_metrics pool = sim::metrics_snapshot();
    std::vector<std::vector<double>> batch_ms;
    std::vector<double> trial_ms;
    for (const batch_record& b : batches) {
        batch_ms.emplace_back();
        for (const phase_run& r : b.runs) {
            batch_ms.back().insert(batch_ms.back().end(), r.trial_ms.begin(), r.trial_ms.end());
        }
        trial_ms.insert(trial_ms.end(), batch_ms.back().begin(), batch_ms.back().end());
    }
    put(out.end_to_end, "peak_rss_mib", peak_rss_mib());
    put(out.end_to_end, "throughput_per_s", percentile(rates, 100.0 - kQuietPercent));
    put_trial_latency(out, batch_ms);
    char line[160];
    std::snprintf(line, sizeof line, "%zu batches of %zu trials, upper decile of per-batch trials/s",
                  batches.size(), batches.front().trials);
    out.note(line);

    // --- Correctness: scalar re-run of a fixed subsample + journals ----------
    struct check {
        const phase_plan* plan;
        const phase_run* run;
        std::size_t index;
    };
    std::vector<check> checks;
    for (const batch_record& b : batches) {
        for (std::size_t j = 0; j < b.plans.size(); ++j) {
            out.attempted += b.plans[j].mc.trials;
            if (!journal_matches(b.plans[j], b.runs[j])) {
                out.fail("journal " + b.plans[j].mc.checkpoint_path + " does not replay the results");
            }
            for (std::size_t i = 0; i < b.plans[j].mc.trials; i += kCheckEvery) {
                checks.push_back({&b.plans[j], &b.runs[j], i});
            }
        }
    }
    std::vector<parallel_result> scalar(checks.size());
    (void)sim::parallel_for(checks.size(), threads, [&](std::size_t c) {
        const sim::parallel_walk_config& cfg = checks[c].plan->cfg;
        scalar[c] = parallel_hit(cfg.k, cfg.strategy, sim::target_at(cfg.ell), cfg.budget,
                                 trial_stream(checks[c].plan->mc, checks[c].index), cfg.cap);
    });
    for (std::size_t c = 0; c < checks.size(); ++c) {
        const parallel_result& batch = checks[c].run->results[checks[c].index];
        if (!same_result(batch, scalar[c])) {
            out.fail("k=" + std::to_string(checks[c].plan->cfg.k) + " trial " +
                     std::to_string(checks[c].index) + ": batch " + describe(batch) +
                     " != scalar " + describe(scalar[c]));
        }
    }
    out.note(std::to_string(checks.size()) + " trials re-run through scalar parallel_hit");

    if (!args.trace) return out;

    // --- Per-layer metrics (traced run) ----------------------------------------
    const batch_record& first = batches.front();
    mirror_stats mirror;
    for (std::size_t j = 0; j < first.plans.size(); ++j) {
        for (std::size_t i = 0; i < first.plans[j].mc.trials; i += kCheckEvery) {
            const parallel_result r =
                mirror_trial(first.plans[j].cfg, trial_stream(first.plans[j].mc, i), mirror);
            if (!same_result(r, first.runs[j].results[i])) {
                out.fail("walker_block mirror differs from run_parallel at k=" +
                         std::to_string(first.plans[j].cfg.k) + " trial " + std::to_string(i));
            }
        }
    }
    std::vector<double> alphas;
    for (const phase_plan& p : first.plans) {
        alphas.push_back(optimal_alpha(static_cast<double>(p.cfg.k), static_cast<double>(shape.ell)));
    }
    const micro_costs micro = time_rng_grid(alphas, kNoCap, derive_seed(args.seed, 0x317));

    // Pool speedup: batch 0's trial set (no journal) at 1 thread vs all.
    double t_one = 0.0;
    double t_all = 0.0;
    for (const unsigned t : {1U, threads}) {
        const double t0 = now_s();
        for (const phase_plan& p : batch_plan(shape, args.seed, 0, t, "")) (void)run_phase(p);
        (t == 1U ? t_one : t_all) = now_s() - t0;
    }

    auto& pl = out.per_layer;
    put(pl, "rng.jump_ns", micro.jump_ns);
    put(pl, "rng.substream_ns", micro.substream_ns);
    put(pl, "grid.ring_ns", micro.ring_ns);
    put(pl, "grid.path_step_ns", micro.path_step_ns);
    const double trials = static_cast<double>(mirror.trials);
    put(pl, "walk_engine.spawn_ms", mirror.spawn_ms / trials);
    put(pl, "walk_engine.epoch_ms", mirror.epoch_ms / trials);
    put(pl, "walk_engine.epochs", static_cast<double>(mirror.epochs));
    put(pl, "walk_engine.walker_epochs", static_cast<double>(mirror.walker_epochs));
    put(pl, "walk_engine.ns_per_phase", mirror.epoch_ms * 1e6 / static_cast<double>(mirror.walker_epochs));
    // Estimate: one jump draw per walker-epoch (a phase start), at the
    // micro-timed cost, as a share of the epoch loop's time.
    put(pl, "rng.jump_share",
        static_cast<double>(mirror.walker_epochs) * micro.jump_ns / (mirror.epoch_ms * 1e6));
    put(pl, "pool.utilization", pool.utilization());
    put(pl, "pool.trial_ms_p50", median(trial_ms));
    put(pl, "pool.trial_ms_max", percentile(trial_ms, 100.0));
    put(pl, "pool.speedup", t_one / t_all);
    put(pl, "checkpoint.flushes", static_cast<double>(batch0_flushes));
    put(pl, "checkpoint.bytes", static_cast<double>(batch0_bytes));
    put(pl, "checkpoint.flush_ms", registry_histogram_mean_ms("checkpoint.flush_ns"));
    put(pl, "obs.trace_overhead", median(untraced_rates) / median(rates) - 1.0);
    out.note("walk_engine.* and rng.jump_share: batch 0's " + std::to_string(mirror.trials) +
             " mirrored trials; rng.jump_share is an estimate; checkpoint.flush_ms is a "
             "log2-histogram mean estimate");
    return out;
}

work_counts sweep_smoke_counts(const run_args& args, std::uint64_t& failed) {
    const sweep_shape shape{64, {2, 8, 32}, 8};
    static int run = 0;  // each smoke run journals to a fresh directory
    const std::string dir = args.work_dir + "/smoke-sweep-" + std::to_string(run++);
    std::filesystem::create_directories(dir);
    const std::uint64_t flushes0 = registry_counter("checkpoint.flushes");
    const batch_record b = run_batch(batch_plan(shape, args.seed, 0, args.threads, dir));
    work_counts counts{{"checkpoint.flushes", registry_counter("checkpoint.flushes") - flushes0}};
    mirror_stats mirror;
    for (std::size_t j = 0; j < b.plans.size(); ++j) {
        failed += journal_matches(b.plans[j], b.runs[j]) ? 0 : 1;
        for (std::size_t i = 0; i < b.plans[j].mc.trials; ++i) {
            const parallel_result r = mirror_trial(b.plans[j].cfg, trial_stream(b.plans[j].mc, i), mirror);
            failed += same_result(r, b.runs[j].results[i]) ? 0 : 1;
            counts["results.hit_time_sum"] += r.time;
        }
    }
    counts["walk_engine.epochs"] = mirror.epochs;
    counts["walk_engine.walker_epochs"] = mirror.walker_epochs;
    return counts;
}

}  // namespace perfbench
