// levyfault — fault-injection driver proving the crash-safety story
// end to end, from outside the process.
//
// Subcommands:
//   levyfault run [--trials=N] [--seed=X] [--threads=T] [--out=FILE]
//                 [--checkpoint=FILE] [--checkpoint-interval=K]
//                 [--max-steps-per-trial=M]
//                 [--crash-after=N] [--cancel-after=N]
//                 [--torn-write=F] [--short-write=F]
//       One fixed parallel-walk sweep; per-trial results as CSV to --out
//       (default stdout). --crash-after=N _Exit(9)s before trial N — a
//       SIGKILL-grade death: no unwinding, no final flush, only journal
//       bytes already renamed into place survive. --torn-write/--short-write
//       corrupt checkpoint flush number F on disk (see src/sim/fault.h).
//
//   levyfault selftest [--dir=DIR]
//       Spawns itself: for 1 and 4 threads, runs an uninterrupted
//       reference, then a crashed run, then a resume, and byte-compares
//       the resumed CSV against the reference. Also proves torn-write
//       recovery. Exit 0 = every scenario bit-identical.
//
//   levyfault shardrun [--trials=N] [--seed=X] [--threads=T] [--out=FILE]
//                      [--shards=S] [--memory-budget=B] [--spill-dir=DIR]
//                      [--kill-at-spill=N]
//       One fixed sharded parallel-walk sweep; per-trial results (including
//       winner and winner exponent) as CSV to --out. Without --shards /
//       --memory-budget it runs the in-memory engine — the byte-compare
//       reference. --kill-at-spill=N _Exit(9)s at the N-th shard spill of a
//       trial, leaving the spill directory mid-flight for a resume.
//
//   levyfault shards [--dir=DIR]
//       Out-of-core drill: for 1 and 4 threads, runs an in-memory
//       reference, a clean sharded run (byte-identical), a sharded run
//       killed at a spill, corrupts one of the surviving shard files, then
//       reruns over the same spill directory and byte-compares against the
//       reference. Exit 0 = kill -9 lost nothing and the corrupt shard
//       recomputed itself.
//
//   levyfault serve
//       In-process service-fault drills against a live levyserve core
//       (src/serve/server.h): a stalled client socket is cut off by the
//       head deadline without wedging the lone worker; a client that
//       resets mid-response leaves the server serving; an injected worker
//       exception during a query answers 500 and the *next* query answers
//       200. Exit 0 = the server survived every abuse.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/strategy.h"
#include "src/serve/http.h"
#include "src/serve/server.h"
#include "src/sim/experiment.h"
#include "src/sim/fault.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/trial.h"
#include "src/sim/walk_engine.h"
#include "tools/arg_map.h"

#if LEVY_SERVE_HAVE_POSIX_SOCKETS
#include <unistd.h>
#endif

namespace {

using namespace levy;
using tools::arg_map;

int cmd_run(int argc, char** argv) {
    const arg_map args(argc, argv, 2,
                       {"trials", "seed", "threads", "out", "checkpoint", "checkpoint-interval",
                        "max-steps-per-trial", "crash-after", "cancel-after", "torn-write",
                        "short-write"});
    sim::mc_options opts;
    opts.trials = args.get<std::size_t>("trials", 120);
    opts.seed = args.get<std::uint64_t>("seed", sim::kDefaultSeed);
    opts.threads = args.get<unsigned>("threads", 1);
    opts.checkpoint_path = args.text("checkpoint", "");
    opts.checkpoint_interval = args.get<std::size_t>("checkpoint-interval", 1);

    sim::fault_plan plan;
    plan.exit_at_trial = args.get<std::size_t>("crash-after", sim::fault_plan::kNever);
    plan.cancel_after_trial = args.get<std::size_t>("cancel-after", sim::fault_plan::kNever);
    plan.torn_write_flush = args.get<std::size_t>("torn-write", sim::fault_plan::kNever);
    plan.torn_write_offset = 50;
    plan.short_write_flush = args.get<std::size_t>("short-write", sim::fault_plan::kNever);
    plan.short_write_bytes = 20;
    const bool any_fault = plan.exit_at_trial != sim::fault_plan::kNever ||
                           plan.cancel_after_trial != sim::fault_plan::kNever ||
                           plan.torn_write_flush != sim::fault_plan::kNever ||
                           plan.short_write_flush != sim::fault_plan::kNever;
    if (any_fault) sim::install_fault_plan(plan);

    // The workload itself is fixed: the selftest is about the journal, so
    // only the Monte-Carlo identity (seed, trials) varies.
    sim::parallel_walk_config cfg;
    cfg.k = 4;
    cfg.strategy = fixed_exponent(2.5);
    cfg.ell = 16;
    cfg.budget = 4000;
    cfg.max_steps = args.get<std::uint64_t>("max-steps-per-trial", 0);

    const auto results = sim::monte_carlo_collect(
        opts, [&cfg](std::size_t, rng& g) { return sim::parallel_walk_trial(cfg, g); });
    sim::clear_fault_plan();

    std::ostringstream csv;
    csv << "trial,hit,time,censored\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        csv << i << ',' << results[i].hit << ',' << results[i].time << ','
            << results[i].censored << '\n';
    }
    const std::string out_path = args.text("out", "");
    if (out_path.empty()) {
        std::cout << csv.str();
    } else {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        out << csv.str();
        if (!out.good()) throw std::runtime_error("levyfault: cannot write " + out_path);
    }
    return 0;
}

int cmd_shardrun(int argc, char** argv) {
    const arg_map args(argc, argv, 2,
                       {"trials", "seed", "threads", "out", "shards", "memory-budget",
                        "spill-dir", "kill-at-spill"});
    sim::mc_options opts;
    opts.trials = args.get<std::size_t>("trials", 6);
    opts.seed = args.get<std::uint64_t>("seed", 4242);
    opts.threads = args.get<unsigned>("threads", 1);

    sim::fault_plan plan;
    plan.exit_at_shard_spill = args.get<std::size_t>("kill-at-spill", sim::fault_plan::kNever);
    if (plan.exit_at_shard_spill != sim::fault_plan::kNever) sim::install_fault_plan(plan);

    // Fixed workload: the drill is about the spill files, so only the
    // sharding knobs and the Monte-Carlo identity vary.
    sim::parallel_walk_config cfg;
    cfg.k = 12;
    cfg.strategy = fixed_exponent(2.5);
    cfg.ell = 24;
    cfg.budget = 3000;
    cfg.shards = args.get<std::size_t>("shards", 0);
    cfg.memory_budget = args.get<std::uint64_t>("memory-budget", 0);
    cfg.spill_dir = args.text("spill-dir", "");

    const auto results = sim::monte_carlo_collect(
        opts, [&cfg](std::size_t, rng& g) { return sim::parallel_walk_trial(cfg, g); });
    sim::clear_fault_plan();

    std::ostringstream csv;
    csv.precision(17);
    csv << "trial,hit,time,winner,winner_alpha\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        csv << i << ',' << results[i].hit << ',' << results[i].time << ','
            << results[i].winner << ',' << results[i].winner_alpha << '\n';
    }
    const std::string out_path = args.text("out", "");
    if (out_path.empty()) {
        std::cout << csv.str();
    } else {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        out << csv.str();
        if (!out.good()) throw std::runtime_error("levyfault: cannot write " + out_path);
    }
    return 0;
}

/// Run a child levyfault command line; returns its raw std::system status.
int spawn(const std::string& self, const std::string& args) {
    const std::string cmd = self + " " + args;
    std::cout << "  $ " << cmd << "\n";
    return std::system(cmd.c_str());
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int fail(const std::string& what) {
    std::cerr << "levyfault selftest FAILED: " << what << "\n";
    return 1;
}

int cmd_selftest(int argc, char** argv) {
    namespace fs = std::filesystem;
    const arg_map args(argc, argv, 2, {"dir"});
    const std::string self = argv[0];
    const fs::path dir = args.text("dir", (fs::temp_directory_path() / "levyfault_selftest").string());
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto p = [&dir](const std::string& name) { return (dir / name).string(); };

    for (const unsigned threads : {1u, 4u}) {
        const std::string common = "run --trials=120 --seed=1337 --threads=" +
                                   std::to_string(threads) + " --checkpoint-interval=1";
        std::cout << "[levyfault] crash/resume, threads=" << threads << "\n";

        if (spawn(self, common + " --out=" + p("ref.csv")) != 0) {
            return fail("reference run did not exit 0");
        }
        const std::string reference = slurp(p("ref.csv"));
        if (reference.empty()) return fail("reference CSV is empty");

        // Crash mid-sweep: _Exit(9) with no unwinding. The only durable
        // state is whatever the journal had already renamed into place.
        const std::string journal = p("crash-" + std::to_string(threads) + ".ckpt");
        if (spawn(self, common + " --checkpoint=" + journal + " --crash-after=40 --out=" +
                            p("crashed.csv")) == 0) {
            return fail("crashed run exited 0 — fault did not fire");
        }
        if (!fs::exists(journal)) return fail("crash left no journal behind");

        // Resume must complete and reproduce the reference byte for byte.
        if (spawn(self, common + " --checkpoint=" + journal + " --out=" + p("resumed.csv")) !=
            0) {
            return fail("resume run did not exit 0");
        }
        if (slurp(p("resumed.csv")) != reference) {
            return fail("resumed CSV differs from uninterrupted reference");
        }

        // Torn checkpoint write: the run survives (journal plays dead), the
        // corruption stays on disk, and the next run recovers through it.
        const std::string torn = p("torn-" + std::to_string(threads) + ".ckpt");
        if (spawn(self, common + " --checkpoint=" + torn + " --torn-write=3 --out=" +
                            p("torn1.csv")) != 0) {
            return fail("torn-write run did not exit 0");
        }
        if (slurp(p("torn1.csv")) != reference) {
            return fail("torn-write run output differs from reference");
        }
        if (spawn(self, common + " --checkpoint=" + torn + " --out=" + p("torn2.csv")) != 0) {
            return fail("post-corruption resume did not exit 0");
        }
        if (slurp(p("torn2.csv")) != reference) {
            return fail("post-corruption resume differs from reference");
        }
    }

    fs::remove_all(dir);
    std::cout << "[levyfault] all crash/resume scenarios bit-identical\n";
    return 0;
}

int cmd_shards_drill(int argc, char** argv) {
    namespace fs = std::filesystem;
    const arg_map args(argc, argv, 2, {"dir"});
    const std::string self = argv[0];
    const fs::path dir =
        args.text("dir", (fs::temp_directory_path() / "levyfault_shards").string());
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto p = [&dir](const std::string& name) { return (dir / name).string(); };
    const auto fail_shards = [](const std::string& what) {
        std::cerr << "levyfault shards FAILED: " << what << "\n";
        return 1;
    };
    const auto shard_files = [](const fs::path& spill_dir) {
        std::vector<fs::path> files;
        if (fs::exists(spill_dir)) {
            for (const auto& entry : fs::directory_iterator(spill_dir)) {
                if (entry.path().extension() == ".lvyshard") files.push_back(entry.path());
            }
        }
        return files;
    };

    for (const unsigned threads : {1u, 4u}) {
        const std::string tag = std::to_string(threads);
        const std::string common = "shardrun --trials=6 --seed=4242 --threads=" + tag;
        // 6 shards of 2 walkers under a 3-walker resident budget: every
        // round evicts, so spills are frequent and a kill lands mid-flight.
        const std::string spill_dir = p("spill-" + tag);
        const std::string sharded_flags =
            " --shards=6 --memory-budget=" +
            std::to_string(3 * sim::walker_block::kBytesPerWalker) + " --spill-dir=" + spill_dir;
        std::cout << "[levyfault] out-of-core kill/resume, threads=" << threads << "\n";

        if (spawn(self, common + " --out=" + p("ref.csv")) != 0) {
            return fail_shards("in-memory reference run did not exit 0");
        }
        const std::string reference = slurp(p("ref.csv"));
        if (reference.empty()) return fail_shards("reference CSV is empty");

        // Clean sharded run: bit-identical results, no files left behind.
        if (spawn(self, common + sharded_flags + " --out=" + p("sharded.csv")) != 0) {
            return fail_shards("sharded run did not exit 0");
        }
        if (slurp(p("sharded.csv")) != reference) {
            return fail_shards("sharded CSV differs from in-memory reference");
        }
        if (!shard_files(spill_dir).empty()) {
            return fail_shards("clean sharded run left spill files behind");
        }

        // Kill -9 (well, _Exit(9)) at a spill: the run must die nonzero and
        // leave already-synced shards on disk for the resume.
        if (spawn(self, common + sharded_flags + " --kill-at-spill=7 --out=" +
                            p("killed.csv")) == 0) {
            return fail_shards("killed run exited 0 — fault did not fire");
        }
        const auto survivors = shard_files(spill_dir);
        if (survivors.empty()) return fail_shards("kill left no spill files behind");

        // Corrupt one survivor: only that shard may recompute, and the
        // rerun must still match the reference byte for byte.
        {
            std::fstream f(survivors.front(), std::ios::binary | std::ios::in | std::ios::out);
            f.seekp(100);
            f.put(static_cast<char>(0x5a));
            if (!f.good()) return fail_shards("could not corrupt a surviving shard file");
        }
        if (spawn(self, common + sharded_flags + " --out=" + p("resumed.csv")) != 0) {
            return fail_shards("resumed sharded run did not exit 0");
        }
        if (slurp(p("resumed.csv")) != reference) {
            return fail_shards("resumed CSV differs from in-memory reference");
        }
        if (!shard_files(spill_dir).empty()) {
            return fail_shards("resumed run left spill files behind");
        }
    }

    fs::remove_all(dir);
    std::cout << "[levyfault] out-of-core scenarios bit-identical through kill and "
                 "corruption\n";
    return 0;
}

#if LEVY_SERVE_HAVE_POSIX_SOCKETS

int serve_fail(serve::server& server, const std::string& what) {
    server.stop();
    std::cerr << "levyfault serve FAILED: " << what << "\n";
    return 1;
}

int cmd_serve_drills(int argc, char** argv) {
    (void)arg_map(argc, argv, 2, {});  // the drills take no flags
    // One worker and a tiny queue: if any drill wedged the worker, the
    // follow-up health check could never answer.
    serve::serve_options opts;
    opts.workers = 1;
    opts.queue_capacity = 4;
    opts.steps_per_ms = 1000;
    opts.default_trials = 16;
    opts.limits.io_timeout_seconds = 0.2;
    opts.limits.head_deadline_seconds = 0.5;

    serve::server server(opts);
    const unsigned short port = server.start();
    int status = 0;

    std::cout << "[levyfault] drill 1: stalled client socket\n";
    // Connect and send nothing: the lone worker must hand the connection
    // back once the 0.5 s head deadline lapses, not wait on it forever.
    const int stalled = serve::connect_client(port, 5.0);
    if (stalled < 0) return serve_fail(server, "could not open the stalled connection");
    if (!serve::http_get(port, "/healthz", 5.0, &status).has_value() || status != 200) {
        ::close(stalled);
        return serve_fail(server, "healthz blocked behind a stalled client");
    }
    ::close(stalled);

    std::cout << "[levyfault] drill 2: half a request, then silence\n";
    const int drip = serve::connect_client(port, 5.0);
    if (drip < 0) return serve_fail(server, "could not open the drip connection");
    (void)serve::send_all(drip, "GET /metr");  // head never completes
    if (!serve::http_get(port, "/healthz", 5.0, &status).has_value() || status != 200) {
        ::close(drip);
        return serve_fail(server, "healthz blocked behind a half-sent head");
    }
    ::close(drip);

    std::cout << "[levyfault] drill 3: client resets mid-response\n";
    const int reset = serve::connect_client(port, 5.0);
    if (reset < 0) return serve_fail(server, "could not open the resetting connection");
    (void)serve::send_all(reset, "GET /metrics HTTP/1.1\r\n\r\n");
    ::close(reset);  // gone before reading a byte of the reply
    if (!serve::http_get(port, "/healthz", 5.0, &status).has_value() || status != 200) {
        return serve_fail(server, "healthz blocked after a mid-response reset");
    }

    std::cout << "[levyfault] drill 4: worker exception during a query\n";
    // The next admitted connection's sequence number gets the injected
    // fault: that query must answer 500, the one after it 200.
    sim::fault_plan plan;
    plan.throw_at_query = server.stats().admission.admitted;
    sim::install_fault_plan(plan);
    const std::string query = "/query?alpha=2.5&ell=16&k=2&budget=1000&trials=8";
    (void)serve::http_get(port, query, 10.0, &status);
    sim::clear_fault_plan();
    if (status != 500) {
        return serve_fail(server, "injected worker fault did not answer 500 (got " +
                                      std::to_string(status) + ")");
    }
    if (!serve::http_get(port, query, 30.0, &status).has_value() || status != 200) {
        return serve_fail(server, "server did not keep serving after a worker fault");
    }
    if (server.stats().worker_faults != 1) {
        return serve_fail(server, "worker fault was not counted exactly once");
    }

    server.stop();
    std::cout << "[levyfault] serve drills OK: server survived every abuse\n";
    return 0;
}

#else

int cmd_serve_drills(int /*argc*/, char** /*argv*/) {
    std::cerr << "levyfault serve requires POSIX sockets on this platform\n";
    return 2;
}

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS

void usage() {
    std::cout << "levyfault <run|shardrun|selftest|shards|serve> [--flag=value ...]   (see source header)\n";
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) {
            usage();
            return 2;
        }
        const std::string_view cmd = argv[1];
        if (cmd == "run") return cmd_run(argc, argv);
        if (cmd == "shardrun") return cmd_shardrun(argc, argv);
        if (cmd == "selftest") return cmd_selftest(argc, argv);
        if (cmd == "shards") return cmd_shards_drill(argc, argv);
        if (cmd == "serve") return cmd_serve_drills(argc, argv);
        usage();
        return 2;
    } catch (const sim::run_cancelled&) {
        std::cerr << "levyfault: cancelled (journal flushed)\n";
        return 130;
    } catch (const std::exception& e) {
        std::cerr << "levyfault: " << e.what() << '\n';
        return 1;
    }
}
