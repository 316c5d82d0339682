#include "src/sim/experiment.h"

#include <charconv>
#include <cmath>
#include <csignal>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "src/core/contracts.h"
#include "src/obs/metrics.h"
#include "src/rng/splitmix64.h"

namespace levy::sim {
namespace {

template <class T>
T parse_number(std::string_view text, std::string_view flag) {
    T value{};
    const auto* begin = text.data();
    const auto* end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end) {
        throw std::invalid_argument("invalid value for --" + std::string(flag) + ": " +
                                    std::string(text));
    }
    return value;
}

/// Byte count with an optional binary-multiple suffix: "64M", "2G", "4096".
std::uint64_t parse_bytes(std::string_view text, std::string_view flag) {
    std::uint64_t multiplier = 1;
    const char last = text.back();  // callers guarantee non-empty
    switch (last) {
        case 'K': case 'k': multiplier = 1ULL << 10; break;
        case 'M': case 'm': multiplier = 1ULL << 20; break;
        case 'G': case 'g': multiplier = 1ULL << 30; break;
        case 'T': case 't': multiplier = 1ULL << 40; break;
        default: break;
    }
    if (multiplier != 1) text.remove_suffix(1);
    const auto value = parse_number<std::uint64_t>(text, flag);
    if (value != 0 && value > std::numeric_limits<std::uint64_t>::max() / multiplier) {
        throw std::invalid_argument("value overflows for --" + std::string(flag));
    }
    return value * multiplier;
}

std::string hex64(std::uint64_t v) {
    std::ostringstream out;
    out << std::hex << v;
    return out.str();
}

extern "C" void levy_sim_sigterm_handler(int) { request_cancel(); }

}  // namespace

void cancel_on_sigterm() noexcept {
    clear_cancel();
    std::signal(SIGTERM, levy_sim_sigterm_handler);
}

mc_options run_options::mc(std::size_t default_trials, std::uint64_t salt) const {
    mc_options opts;
    opts.trials = trials != 0 ? trials : default_trials;
    opts.threads = threads;
    opts.chunk = chunk;
    opts.seed = salt == 0 ? seed : mix64(seed, salt);
    if (!checkpoint_dir.empty()) {
        // One journal per Monte-Carlo phase, keyed by its (salted) seed and
        // trial count — exactly the identity the journal header validates.
        opts.checkpoint_path = checkpoint_dir + "/mc-" + hex64(opts.seed) + "-" +
                               std::to_string(opts.trials) + ".ckpt";
        opts.checkpoint_interval = checkpoint_interval;
    }
    return opts;
}

std::string format_throughput(const run_metrics& m) {
    if (m.trials == 0) return {};
    std::ostringstream out;
    out.precision(3);
    out << "throughput: " << m.trials << " trials in " << m.wall_seconds << " s ("
        << static_cast<std::uint64_t>(m.trials_per_sec()) << " trials/s, " << m.max_workers
        << (m.max_workers == 1 ? " worker" : " workers") << ", ";
    if (m.wall_seconds * static_cast<double>(m.max_workers) > 0.0) {
        out << static_cast<int>(m.utilization() * 100.0 + 0.5) << "% utilization)";
    } else {
        out << "utilization n/a)";
    }
    if (m.censored > 0) {
        out << " [" << m.censored << " censored by --max-steps-per-trial]";
    }
    return out.str();
}

std::int64_t scaled(std::int64_t base, double scale) {
    const double product = static_cast<double>(base) * scale;
    // ±2^63 are exact doubles: every product in [−2^63, 2^63) converts.
    constexpr double kLimit = 0x1.0p63;
    if (!(product >= -kLimit && product < kLimit)) {
        std::ostringstream msg;
        msg << "--scale=" << scale << " takes " << base << " outside 64-bit integers";
        throw std::invalid_argument(msg.str());
    }
    const auto v = static_cast<std::int64_t>(product);
    return v < 1 ? 1 : v;
}

run_options parse_run_options(int argc, char** argv) {
    run_options opts;
    std::set<std::string, std::less<>> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        // Matches "--<flag>=<value>"; rejects empty values and repeats.
        const auto eat = [&](std::string_view flag) -> std::string_view {
            if (arg.substr(0, flag.size()) != flag || arg.size() <= flag.size() ||
                arg[flag.size()] != '=') {
                return {};
            }
            if (!seen.emplace(flag).second) {
                throw std::invalid_argument("duplicate flag: " + std::string(flag));
            }
            const std::string_view value = arg.substr(flag.size() + 1);
            if (value.empty()) {
                throw std::invalid_argument("empty value for " + std::string(flag));
            }
            return value;
        };
        if (auto v = eat("--trials"); !v.empty()) {
            opts.trials = parse_number<std::size_t>(v, "trials");
        } else if (auto s = eat("--scale"); !s.empty()) {
            opts.scale = parse_number<double>(s, "scale");
        } else if (auto t = eat("--threads"); !t.empty()) {
            opts.threads = parse_number<unsigned>(t, "threads");
        } else if (auto k = eat("--chunk"); !k.empty()) {
            opts.chunk = parse_number<std::size_t>(k, "chunk");
        } else if (auto x = eat("--seed"); !x.empty()) {
            opts.seed = parse_number<std::uint64_t>(x, "seed");
        } else if (auto d = eat("--checkpoint"); !d.empty()) {
            opts.checkpoint_dir = std::string(d);
        } else if (auto n = eat("--checkpoint-interval"); !n.empty()) {
            opts.checkpoint_interval = parse_number<std::size_t>(n, "checkpoint-interval");
        } else if (auto m = eat("--max-steps-per-trial"); !m.empty()) {
            opts.max_trial_steps = parse_number<std::uint64_t>(m, "max-steps-per-trial");
        } else if (auto j = eat("--json"); !j.empty()) {
            opts.json_path = std::string(j);
        } else if (auto jd = eat("--json-dir"); !jd.empty()) {
            opts.json_dir = std::string(jd);
        } else if (auto tr = eat("--trace"); !tr.empty()) {
            opts.trace_path = std::string(tr);
        } else if (arg == "--progress") {
            // The one value-less flag: "--progress" alone means the default
            // interval, so it takes the same duplicate bookkeeping by hand.
            if (!seen.emplace("--progress").second) {
                throw std::invalid_argument("duplicate flag: --progress");
            }
            opts.progress_seconds = 2.0;
        } else if (auto p = eat("--progress"); !p.empty()) {
            opts.progress_seconds = parse_number<double>(p, "progress");
        } else if (auto mp = eat("--metrics-port"); !mp.empty()) {
            opts.metrics_port = parse_number<int>(mp, "metrics-port");
        } else if (auto en = eat("--engine"); !en.empty()) {
            if (en == "scalar") {
                opts.engine = engine_kind::scalar;
            } else if (en == "batch") {
                opts.engine = engine_kind::batch;
            } else {
                throw std::invalid_argument("--engine must be scalar or batch, got: " +
                                            std::string(en));
            }
        } else if (auto cp = eat("--cap"); !cp.empty()) {
            const auto cap = parse_number<std::uint64_t>(cp, "cap");
            opts.cap = cap == 0 ? kNoCap : cap;
        } else if (auto dm = eat("--deadline-ms"); !dm.empty()) {
            // Parsed signed so "-5" reaches the precondition (an unsigned
            // parse would report it as a malformed number instead).
            const auto ms = parse_number<std::int64_t>(dm, "deadline-ms");
            LEVY_PRECONDITION(ms > 0, "--deadline-ms must be > 0");
            opts.deadline_ms = static_cast<std::uint64_t>(ms);
        } else if (auto qc = eat("--queue-capacity"); !qc.empty()) {
            const auto capacity = parse_number<std::int64_t>(qc, "queue-capacity");
            LEVY_PRECONDITION(capacity > 0, "--queue-capacity must be > 0");
            opts.queue_capacity = static_cast<std::size_t>(capacity);
        } else if (auto sh = eat("--shards"); !sh.empty()) {
            opts.shards = parse_number<std::size_t>(sh, "shards");
        } else if (auto mb = eat("--memory-budget"); !mb.empty()) {
            opts.memory_budget = parse_bytes(mb, "memory-budget");
        } else if (auto sd = eat("--spill-dir"); !sd.empty()) {
            opts.spill_dir = std::string(sd);
        } else if (auto es = eat("--epoch-steps"); !es.empty()) {
            opts.epoch_steps = parse_number<std::uint64_t>(es, "epoch-steps");
        } else if (arg == "--help" || arg == "-h") {
            throw std::invalid_argument(
                "usage: [--trials=N] [--scale=S] [--threads=T] [--chunk=C] [--seed=X] "
                "[--checkpoint=DIR] [--checkpoint-interval=K] [--max-steps-per-trial=M] "
                "[--json=PATH|-] [--json-dir=DIR] [--trace=PATH] [--progress[=SECS]] "
                "[--metrics-port=P] [--engine=scalar|batch] [--cap=C] [--deadline-ms=D] "
                "[--queue-capacity=Q] [--shards=S] [--memory-budget=B] [--spill-dir=DIR] "
                "[--epoch-steps=N]");
        } else {
            throw std::invalid_argument("unknown argument: " + std::string(arg));
        }
    }
    obs::get_counter("cli.flags_parsed").add(seen.size());
    if (!(opts.scale > 0.0) || !std::isfinite(opts.scale)) {
        throw std::invalid_argument("--scale must be positive and finite");
    }
    if (opts.checkpoint_interval == 0) {
        throw std::invalid_argument("--checkpoint-interval must be >= 1");
    }
    if (seen.count("--progress") != 0 && !(opts.progress_seconds > 0.0)) {
        throw std::invalid_argument("--progress interval must be positive");
    }
    if (opts.metrics_port != -1 && (opts.metrics_port < 0 || opts.metrics_port > 65535)) {
        throw std::invalid_argument("--metrics-port must be in [0, 65535]");
    }
    return opts;
}

std::string default_json_path(const run_options& opts, const std::string& id) {
    if (opts.json_path == "-") return {};
    if (!opts.json_path.empty()) return opts.json_path;
    if (!opts.json_dir.empty()) return opts.json_dir + "/BENCH_" + id + ".json";
    return {};
}

std::vector<std::pair<std::string, std::string>> describe_options(const run_options& opts) {
    std::vector<std::pair<std::string, std::string>> out;
    // Every flag is recorded, defaults included, so a result document is
    // self-describing without the reader knowing the defaults of the build
    // that wrote it.
    out.emplace_back("trials", std::to_string(opts.trials));
    {
        std::ostringstream s;
        s << opts.scale;
        out.emplace_back("scale", s.str());
    }
    out.emplace_back("threads", std::to_string(opts.threads));
    out.emplace_back("chunk", std::to_string(opts.chunk));
    out.emplace_back("seed", "0x" + hex64(opts.seed));
    if (!opts.checkpoint_dir.empty()) {
        out.emplace_back("checkpoint", opts.checkpoint_dir);
        out.emplace_back("checkpoint-interval", std::to_string(opts.checkpoint_interval));
    }
    if (opts.max_trial_steps != 0) {
        out.emplace_back("max-steps-per-trial", std::to_string(opts.max_trial_steps));
    }
    if (!opts.trace_path.empty()) out.emplace_back("trace", opts.trace_path);
    if (opts.progress_seconds > 0.0) {
        std::ostringstream s;
        s << opts.progress_seconds;
        out.emplace_back("progress", s.str());
    }
    if (opts.metrics_port >= 0) {
        out.emplace_back("metrics-port", std::to_string(opts.metrics_port));
    }
    out.emplace_back("engine", opts.engine == engine_kind::batch ? "batch" : "scalar");
    if (opts.cap != kNoCap) out.emplace_back("cap", std::to_string(opts.cap));
    if (opts.deadline_ms != 0) {
        out.emplace_back("deadline-ms", std::to_string(opts.deadline_ms));
    }
    if (opts.queue_capacity != 0) {
        out.emplace_back("queue-capacity", std::to_string(opts.queue_capacity));
    }
    if (opts.shards > 1) out.emplace_back("shards", std::to_string(opts.shards));
    if (opts.memory_budget != 0) {
        out.emplace_back("memory-budget", std::to_string(opts.memory_budget));
    }
    if (!opts.spill_dir.empty()) out.emplace_back("spill-dir", opts.spill_dir);
    if (opts.epoch_steps != 0) {
        out.emplace_back("epoch-steps", std::to_string(opts.epoch_steps));
    }
    return out;
}

}  // namespace levy::sim
