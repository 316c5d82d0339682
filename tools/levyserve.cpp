// levyserve — overload-safe search-as-a-service for parallel Lévy walks.
//
// Subcommands:
//   levyserve serve [--port=P] [--workers=W] [--queue-capacity=Q]
//                   [--deadline-ms=D] [--max-deadline-ms=M] [--steps-per-ms=S]
//                   [--trials=N] [--seed=X] [--cache=PATH]
//                   [--cache-capacity=C] [--cache-flush-every=K]
//                   [--port-file=PATH]
//                   [--fault-exit-at-cache-flush=N] [--fault-throw-at-query=N]
//       Run the daemon (see src/serve/server.h for the endpoints and the
//       admission → deadline → degradation ladder) until SIGTERM/SIGINT.
//       --port-file writes the bound port for a parent process to read.
//       The --fault-* flags install a sim::fault_plan for the drills below.
//
//   levyserve replay --port=P --out=FILE --batch=exact|tight [--count=N]
//       Issue the deterministic query batch `batch` against a running
//       server and concatenate the response bodies into FILE. Responses
//       contain no wall-clock content, so two replays of the same batch
//       against equivalently-configured servers must produce byte-identical
//       files — the selftest's yardstick. Exit 0 = every request answered.
//
//   levyserve loadgen --port=P [--requests=N] [--concurrency=C]
//                     [--path=TARGET]
//       Closed-loop load (src/serve/loadgen.h); prints key=value counters
//       and p50/p95/p99 latency. Exit 0 iff no non-503 5xx and no
//       transport errors.
//
//   levyserve selftest [--dir=DIR]
//       Spawns itself end to end: populate the result cache with exact
//       answers, take tight-deadline (cache-served) answers, kill -9 the
//       server, restart on the same cache file, and byte-compare both
//       replayed batches. Then crash *between cache flushes* via
//       --fault-exit-at-cache-flush and prove the surviving cache still
//       yields byte-identical exact answers. Exit 0 = all bytes equal.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/serve/http.h"
#include "src/serve/loadgen.h"
#include "src/serve/server.h"
#include "src/sim/checkpoint.h"
#include "src/sim/fault.h"
#include "src/sim/monte_carlo.h"
#include "tools/arg_map.h"

#if LEVY_SERVE_HAVE_POSIX_SOCKETS
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

using namespace levy;
using tools::arg_map;

volatile std::sig_atomic_t g_stop = 0;
extern "C" void levyserve_stop_handler(int) { g_stop = 1; }

serve::serve_options options_from(const arg_map& args) {
    serve::serve_options opts;
    opts.port = args.get<unsigned short>("port", 0);
    opts.workers = args.get<unsigned>("workers", 2);
    opts.queue_capacity = args.get<std::size_t>("queue-capacity", 64);
    opts.default_deadline_ms = args.get<std::uint64_t>("deadline-ms", 200);
    opts.max_deadline_ms = args.get<std::uint64_t>("max-deadline-ms", 60'000);
    opts.steps_per_ms = args.get<std::uint64_t>("steps-per-ms", 20'000);
    opts.default_trials = args.get<std::size_t>("trials", 200);
    opts.seed = args.get<std::uint64_t>("seed", sim::kDefaultSeed);
    opts.cache_path = args.text("cache", "");
    opts.cache.capacity = args.get<std::size_t>("cache-capacity", 4096);
    opts.cache_flush_every = args.get<std::size_t>("cache-flush-every", 16);
    return opts;
}

int cmd_serve(int argc, char** argv) {
    const arg_map args(argc, argv, 2,
                       {"port", "workers", "queue-capacity", "deadline-ms", "max-deadline-ms",
                        "steps-per-ms", "trials", "seed", "cache", "cache-capacity",
                        "cache-flush-every", "fault-exit-at-cache-flush", "fault-throw-at-query",
                        "port-file"});
    const serve::serve_options opts = options_from(args);

    sim::fault_plan plan;
    // The cache is the only framed file a server flushes, so its flushes
    // are the plan's flush numbers.
    plan.exit_at_flush =
        args.get<std::size_t>("fault-exit-at-cache-flush", sim::fault_plan::kNever);
    plan.throw_at_query =
        args.get<std::size_t>("fault-throw-at-query", sim::fault_plan::kNever);
    if (plan.exit_at_flush != sim::fault_plan::kNever ||
        plan.throw_at_query != sim::fault_plan::kNever) {
        sim::install_fault_plan(plan);
    }

    serve::server server(opts);
    const unsigned short port = server.start();
    std::cout << "levyserve listening on port " << port << "\n" << std::flush;
    const std::string port_file = args.text("port-file", "");
    if (!port_file.empty()) {
        // Atomic, so the parent never reads a torn port number.
        const std::string text = std::to_string(port) + "\n";
        sim::atomic_write_file(port_file, std::vector<char>(text.begin(), text.end()));
    }

    std::signal(SIGTERM, levyserve_stop_handler);
    std::signal(SIGINT, levyserve_stop_handler);
    while (g_stop == 0) {
        ::usleep(50'000);
    }
    server.stop();
    sim::clear_fault_plan();
    std::cout << "levyserve stopped\n";
    return 0;
}

/// The deterministic replay batches. "exact" asks with a generous deadline
/// (the full Monte-Carlo fits and seeds the cache); "tight" asks the same
/// grid with deadline_ms=1 (nothing fits — answers must come from the
/// cache's exact or interpolated rungs). A few /plan calls ride along.
std::vector<std::string> batch_paths(const std::string& batch, std::size_t count) {
    const bool tight = batch == "tight";
    if (!tight && batch != "exact") {
        throw std::invalid_argument("levyserve replay: --batch must be exact or tight");
    }
    static const double alphas[] = {2.2, 2.4, 2.6, 2.8};
    static const int ells[] = {16, 24};
    static const int ks[] = {2, 4};
    static const int budgets[] = {2000, 3000, 4000};
    std::vector<std::string> paths;
    paths.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::ostringstream p;
        if (i % 7 == 6) {
            p << "/plan?k=" << ks[i % 2] << "&ell=" << ells[i % 2];
        } else {
            p << "/query?alpha=" << alphas[i % 4] << "&ell=" << ells[i % 2]
              << "&k=" << ks[(i / 2) % 2] << "&budget=" << budgets[i % 3]
              << "&trials=64";
            p << "&deadline_ms=" << (tight ? 1 : 60'000);
        }
        paths.push_back(p.str());
    }
    return paths;
}

int cmd_replay(int argc, char** argv) {
    const arg_map args(argc, argv, 2, {"port", "out", "batch", "count"});
    const auto port = args.get<unsigned short>("port", 0);
    if (port == 0) throw std::invalid_argument("levyserve replay: need --port");
    const std::string out_path = args.text("out", "");
    if (out_path.empty()) throw std::invalid_argument("levyserve replay: need --out");
    const std::vector<std::string> paths =
        batch_paths(args.text("batch", "exact"), args.get<std::size_t>("count", 24));

    std::ostringstream out;
    std::size_t failures = 0;
    for (const std::string& path : paths) {
        int status = 0;
        const std::optional<std::string> body =
            serve::http_get(port, path, /*timeout_seconds=*/120.0, &status);
        out << "### " << path << "\n";
        if (!body.has_value()) {
            out << "TRANSPORT-ERROR\n";
            ++failures;
            continue;
        }
        out << status << "\n" << *body;
    }
    std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
    file << out.str();
    file.close();
    if (!file.good()) throw std::runtime_error("levyserve: cannot write " + out_path);
    if (failures != 0) {
        std::cerr << "levyserve replay: " << failures << "/" << paths.size()
                  << " requests failed\n";
        return 3;
    }
    return 0;
}

int cmd_loadgen(int argc, char** argv) {
    const arg_map args(argc, argv, 2, {"port", "requests", "concurrency", "timeout", "path"});
    serve::loadgen_options opts;
    opts.port = args.get<unsigned short>("port", 0);
    if (opts.port == 0) throw std::invalid_argument("levyserve loadgen: need --port");
    opts.requests = args.get<std::size_t>("requests", 200);
    opts.concurrency = args.get<unsigned>("concurrency", 16);
    opts.timeout_seconds = args.get<double>("timeout", 30.0);
    if (args.has("path")) opts.paths = {args.text("path", "/healthz")};

    const serve::loadgen_report report = serve::run_loadgen(opts);
    std::cout << "sent=" << report.sent << "\n"
              << "ok=" << report.ok << "\n"
              << "shed=" << report.shed << "\n"
              << "client_errors=" << report.client_errors << "\n"
              << "server_errors=" << report.server_errors << "\n"
              << "transport_errors=" << report.transport_errors << "\n"
              << "p50_ms=" << report.percentile_ms(50) << "\n"
              << "p95_ms=" << report.percentile_ms(95) << "\n"
              << "p99_ms=" << report.percentile_ms(99) << "\n";
    const double shed_rate =
        report.sent == 0 ? 0.0
                         : static_cast<double>(report.shed) / static_cast<double>(report.sent);
    std::cout << "shed_rate=" << shed_rate << "\n";
    return (report.server_errors == 0 && report.transport_errors == 0) ? 0 : 4;
}

/// --- selftest ------------------------------------------------------------

struct child_server {
    pid_t pid = -1;
    unsigned short port = 0;
};

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int fail(const std::string& what) {
    std::cerr << "levyserve selftest FAILED: " << what << "\n";
    return 1;
}

/// fork+exec `self serve <args> --port-file=...`; waits until /healthz
/// answers. Returns pid -1 on failure.
child_server spawn_server(const std::string& self, const std::string& port_file,
                          const std::vector<std::string>& extra) {
    std::remove(port_file.c_str());
    std::vector<std::string> argv_s = {self, "serve", "--port-file=" + port_file};
    argv_s.insert(argv_s.end(), extra.begin(), extra.end());
    std::cout << "  $";
    for (const std::string& a : argv_s) std::cout << " " << a;
    std::cout << "\n";
    std::vector<char*> argv_c;
    argv_c.reserve(argv_s.size() + 1);
    for (std::string& a : argv_s) argv_c.push_back(a.data());
    argv_c.push_back(nullptr);

    child_server child;
    const pid_t pid = ::fork();
    if (pid < 0) return child;
    if (pid == 0) {
        ::execv(self.c_str(), argv_c.data());
        std::_Exit(127);  // exec failed
    }
    child.pid = pid;
    for (int i = 0; i < 400; ++i) {  // up to ~20 s
        ::usleep(50'000);
        const std::string text = slurp(port_file);
        if (text.empty()) continue;
        const unsigned long port = std::strtoul(text.c_str(), nullptr, 10);
        if (port == 0 || port > 65535) continue;
        int status = 0;
        if (serve::http_get(static_cast<unsigned short>(port), "/healthz", 1.0, &status)
                .has_value() &&
            status == 200) {
            child.port = static_cast<unsigned short>(port);
            return child;
        }
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    child.pid = -1;
    return child;
}

void kill9(child_server& child) {
    if (child.pid <= 0) return;
    ::kill(child.pid, SIGKILL);
    ::waitpid(child.pid, nullptr, 0);
    child.pid = -1;
}

void stop_gracefully(child_server& child) {
    if (child.pid <= 0) return;
    ::kill(child.pid, SIGTERM);
    ::waitpid(child.pid, nullptr, 0);
    child.pid = -1;
}

int run_child(const std::string& self, const std::string& args) {
    const std::string cmd = self + " " + args;
    std::cout << "  $ " << cmd << "\n";
    return std::system(cmd.c_str());
}

int cmd_selftest(int argc, char** argv) {
    namespace fs = std::filesystem;
    const arg_map args(argc, argv, 2, {"dir"});
    const std::string self = argv[0];
    const fs::path dir =
        args.text("dir", (fs::temp_directory_path() / "levyserve_selftest").string());
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto p = [&dir](const std::string& name) { return (dir / name).string(); };

    // One server configuration for every phase: seed and steps-per-ms fixed,
    // so every answer is a pure function of the request and the cache.
    const std::vector<std::string> config = {
        "--workers=2",         "--queue-capacity=32",    "--steps-per-ms=1000",
        "--trials=64",         "--seed=1337",            "--cache=" + p("cache.bin"),
        "--cache-flush-every=1"};

    std::cout << "[levyserve] phase 1: populate cache with exact answers\n";
    child_server server = spawn_server(self, p("port"), config);
    if (server.pid < 0) return fail("server did not come up");
    const std::string replay =
        "replay --port=" + std::to_string(server.port) + " --count=24";
    if (run_child(self, replay + " --batch=exact --out=" + p("exact1.txt")) != 0) {
        return fail("exact replay 1 did not exit 0");
    }
    const std::string exact1 = slurp(p("exact1.txt"));
    if (exact1.empty()) return fail("exact replay 1 produced no output");

    std::cout << "[levyserve] phase 2: tight deadlines served from the cache\n";
    if (run_child(self, replay + " --batch=tight --out=" + p("tight1.txt")) != 0) {
        return fail("tight replay 1 did not exit 0");
    }
    const std::string tight1 = slurp(p("tight1.txt"));
    if (tight1.find("\"quality\":\"exact\"") == std::string::npos ||
        tight1.find("\"cached\":true") == std::string::npos) {
        return fail("tight replay was not served from the cache");
    }

    std::cout << "[levyserve] phase 3: kill -9, restart on the same cache\n";
    kill9(server);
    server = spawn_server(self, p("port"), config);
    if (server.pid < 0) return fail("server did not restart");
    const std::string replay2 =
        "replay --port=" + std::to_string(server.port) + " --count=24";
    if (run_child(self, replay2 + " --batch=tight --out=" + p("tight2.txt")) != 0) {
        return fail("tight replay 2 did not exit 0");
    }
    if (slurp(p("tight2.txt")) != tight1) {
        return fail("tight answers differ across kill -9 + restart");
    }
    if (run_child(self, replay2 + " --batch=exact --out=" + p("exact2.txt")) != 0) {
        return fail("exact replay 2 did not exit 0");
    }
    if (slurp(p("exact2.txt")) != exact1) {
        return fail("exact answers differ across kill -9 + restart");
    }
    stop_gracefully(server);

    std::cout << "[levyserve] phase 4: crash between cache flushes\n";
    fs::remove(p("cache.bin"));
    std::vector<std::string> crashing = config;
    crashing.push_back("--fault-exit-at-cache-flush=5");  // flushes count from 0
    server = spawn_server(self, p("port"), crashing);
    if (server.pid < 0) return fail("crash-drill server did not come up");
    // The batch dies when the sixth flush is reached; the replay sees
    // transport errors — expected, so ignore its exit status.
    (void)run_child(self,
                    "replay --port=" + std::to_string(server.port) +
                        " --count=24 --batch=exact --out=" + p("crashed.txt"));
    ::waitpid(server.pid, nullptr, 0);
    server.pid = -1;
    if (!fs::exists(p("cache.bin"))) {
        return fail("crash between flushes left no cache file (the sixth flush never renamed)");
    }

    server = spawn_server(self, p("port"), config);
    if (server.pid < 0) return fail("post-crash server did not come up");
    if (run_child(self,
                  "replay --port=" + std::to_string(server.port) +
                      " --count=24 --batch=exact --out=" + p("exact3.txt")) != 0) {
        return fail("post-crash exact replay did not exit 0");
    }
    if (slurp(p("exact3.txt")) != exact1) {
        return fail("post-crash exact answers differ from the original batch");
    }
    // The exact replay repopulated the cache, so tight answers must now
    // match the pre-crash run — per-entry recovery converged to the same
    // state, not merely a working one.
    if (run_child(self,
                  "replay --port=" + std::to_string(server.port) +
                      " --count=24 --batch=tight --out=" + p("tight3.txt")) != 0) {
        return fail("post-crash tight replay did not exit 0");
    }
    if (slurp(p("tight3.txt")) != tight1) {
        return fail("post-crash tight answers differ after cache repopulation");
    }
    stop_gracefully(server);

    fs::remove_all(dir);
    std::cout << "[levyserve] selftest OK: all replayed batches byte-identical\n";
    return 0;
}

void usage() {
    std::cout << "levyserve <serve|replay|loadgen|selftest> [--flag=value ...]   "
                 "(see source header)\n";
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) {
            usage();
            return 2;
        }
        const std::string_view cmd = argv[1];
        if (cmd == "serve") return cmd_serve(argc, argv);
        if (cmd == "replay") return cmd_replay(argc, argv);
        if (cmd == "loadgen") return cmd_loadgen(argc, argv);
        if (cmd == "selftest") return cmd_selftest(argc, argv);
        usage();
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "levyserve: " << e.what() << '\n';
        return 1;
    }
}

#else  // !LEVY_SERVE_HAVE_POSIX_SOCKETS

int main() {
    std::fputs("levyserve requires POSIX sockets on this platform\n", stderr);
    return 2;
}

#endif
