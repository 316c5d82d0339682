#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench.h"
#include "src/rng/splitmix64.h"

namespace perfbench {

void outcome::fail(const std::string& why) {
    ++failed;
    // Keep the report readable when a check fails many times.
    if (failed <= 20) notes.push_back("FAILED: " + why);
}

const std::vector<metric_def>& end_to_end_defs() {
    static const std::vector<metric_def> defs = {
        {"setup_s", "s"},
        {"peak_rss_mib", "MiB"},
        {"throughput_per_s", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_tail_ms", "ms"},
    };
    return defs;
}

const std::vector<metric_def>& per_layer_defs() {
    static const std::vector<metric_def> defs = {
        {"rng.jump_ns", "ns"},
        {"rng.substream_ns", "ns"},
        {"rng.jump_share", "ratio"},
        {"grid.ring_ns", "ns"},
        {"grid.path_step_ns", "ns"},
        {"walk_engine.spawn_ms", "ms"},
        {"walk_engine.epoch_ms", "ms"},
        {"walk_engine.epochs", "count"},
        {"walk_engine.walker_epochs", "count"},
        {"walk_engine.ns_per_phase", "ns"},
        {"shard.rounds", "count"},
        {"shard.spills", "count"},
        {"shard.loads", "count"},
        {"shard.spill_mib", "MiB"},
        {"shard.recomputed", "count"},
        {"shard.peak_resident_mib", "MiB"},
        {"shard.overhead_ms", "ms"},
        {"shard.write_ms", "ms"},
        {"pool.utilization", "ratio"},
        {"pool.trial_ms_p50", "ms"},
        {"pool.trial_ms_max", "ms"},
        {"pool.speedup", "ratio"},
        {"checkpoint.flushes", "count"},
        {"checkpoint.bytes", "bytes"},
        {"checkpoint.flush_ms", "ms"},
        {"http.rtt_ms", "ms"},
        {"admission.admitted", "count"},
        {"admission.shed", "count"},
        {"admission.wait_ms", "ms"},
        {"server.handle_ms.fit", "ms"},
        {"server.handle_ms.cached", "ms"},
        {"server.exact", "count"},
        {"server.interpolated", "count"},
        {"server.degraded", "count"},
        {"cache.find_us", "us"},
        {"cache.interpolate_us", "us"},
        {"cache.insert_us", "us"},
        {"cache.flush_ms", "ms"},
        {"cache.hit_ratio", "ratio"},
        {"obs.trace_overhead", "ratio"},
        {"gen.lag_ms", "ms"},
    };
    return defs;
}

void put(std::map<std::string, metric>& m, const std::string& name, double value) {
    for (const auto* defs : {&end_to_end_defs(), &per_layer_defs()}) {
        for (const metric_def& d : *defs) {
            if (name == d.name) {
                m[name] = metric{value, d.unit};
                return;
            }
        }
    }
    throw std::logic_error("perfbench: undeclared metric " + name);
}

double now_s() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
    return levy::mix64(levy::mix64(seed, a), b);
}

namespace {

std::string read_first_line(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/// Size string of the unified/data cache at `level` for cpu0 ("" if absent).
std::string cache_size(int level) {
    for (int i = 0; i < 8; ++i) {
        const std::string base = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        if (read_first_line(base + "/level") != std::to_string(level)) continue;
        if (read_first_line(base + "/type") == "Instruction") continue;
        return read_first_line(base + "/size");
    }
    return "unknown";
}

std::string filesystem_of(const std::string& path) {
    struct statfs st{};
    if (statfs(path.c_str(), &st) != 0) return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
        case 0xEF53UL: return "ext4";
        case 0x58465342UL: return "xfs";
        case 0x01021994UL: return "tmpfs";
        case 0x9123683EUL: return "btrfs";
        case 0x794C7630UL: return "overlayfs";
        case 0x6969UL: return "nfs";
        default: break;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

}  // namespace

std::string machine_json(const std::string& work_dir) {
    return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu_model\": " + quoted(cpu_model()) + ", \"l2\": " + quoted(cache_size(2)) +
           ", \"l3\": " + quoted(cache_size(3)) +
           ", \"work_dir_fs\": " + quoted(filesystem_of(work_dir)) + "}";
}

}  // namespace perfbench
