// levytop — live view of a running bench's /progress endpoint.
//
// A bench started with --metrics-port=P serves its in-flight state over
// HTTP (see src/obs/exporter.h); levytop polls it and redraws a small
// status table, `top`-style:
//
//   levytop --port=9464              # refresh every second until Ctrl-C
//   levytop --port=9464 --once       # print one snapshot and exit (CI)
//   levytop --port=9464 --raw        # dump the raw /progress JSON
//
// Exit status: 0 on success; 1 when the endpoint is unreachable in --once
// mode (in polling mode an unreachable endpoint just shows "waiting" —
// the bench may not have started yet, or has already finished).

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>  // levylint:allow(raw-thread) client-side poll sleep only

#include "src/obs/json.h"
#include "src/serve/http.h"
#include "tools/arg_map.h"

#if !LEVY_SERVE_HAVE_POSIX_SOCKETS
#error "levytop requires POSIX sockets"
#endif

#include <unistd.h>

namespace {

struct options {
    std::string host = "127.0.0.1";
    int port = -1;
    double interval = 1.0;
    bool once = false;
    bool raw = false;
};

[[noreturn]] void usage(int code) {
    std::fputs(
        "usage: levytop --port=P [--host=H] [--interval=SECS] [--once] [--raw]\n"
        "Polls the /progress endpoint a bench serves under --metrics-port=P.\n",
        code == 0 ? stdout : stderr);
    std::exit(code);
}

options parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h") usage(0);
    }
    options opts;
    try {
        const levy::tools::arg_map args(argc, argv, 1, {"port", "host", "interval", "once", "raw"});
        opts.port = args.get("port", opts.port);
        opts.host = args.text("host", opts.host);
        opts.interval = args.get("interval", opts.interval);
        opts.once = args.has("once");
        opts.raw = args.has("raw");
        if (opts.port < 1 || opts.port > 65535) {
            throw std::invalid_argument("--port=P is required (1..65535)");
        }
        if (!(opts.interval > 0.0)) throw std::invalid_argument("--interval must be positive");
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "levytop: %s\n", e.what());
        usage(1);
    }
    return opts;
}

std::string fmt_duration(double seconds) {
    if (seconds < 0.0) return "?";
    const auto total = static_cast<std::uint64_t>(seconds + 0.5);
    char buf[64];
    if (total >= 3600) {
        std::snprintf(buf, sizeof(buf), "%lluh%llum",
                      static_cast<unsigned long long>(total / 3600),
                      static_cast<unsigned long long>((total % 3600) / 60));
    } else if (total >= 60) {
        std::snprintf(buf, sizeof(buf), "%llum%llus",
                      static_cast<unsigned long long>(total / 60),
                      static_cast<unsigned long long>(total % 60));
    } else {
        std::snprintf(buf, sizeof(buf), "%llus", static_cast<unsigned long long>(total));
    }
    return buf;
}

double number_or(const levy::obs::json& doc, const char* key, double fallback) {
    const levy::obs::json* field = doc.find(key);
    return field != nullptr && field->is_number() ? field->as_number() : fallback;
}

std::string string_or(const levy::obs::json& doc, const char* key) {
    const levy::obs::json* field = doc.find(key);
    return field != nullptr && field->is_string() ? field->as_string() : std::string{};
}

void render(const std::string& body, const options& opts, bool redraw) {
    levy::obs::json doc;
    try {
        doc = levy::obs::json::parse(body);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "levytop: bad /progress document: %s\n", e.what());
        return;
    }
    if (redraw) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
    const std::string label = string_or(doc, "label");
    const std::string phase = string_or(doc, "phase");
    const double planned = number_or(doc, "planned", 0.0);
    const double completed = number_or(doc, "completed", 0.0);
    const double censored = number_or(doc, "censored", 0.0);
    const double rate = number_or(doc, "trials_per_sec", 0.0);
    const double eta = number_or(doc, "eta_seconds", -1.0);
    const double ckpt_age = number_or(doc, "checkpoint_age_seconds", -1.0);
    const double elapsed = number_or(doc, "elapsed_seconds", 0.0);
    std::printf("levytop — http://%s:%d/progress\n\n", opts.host.c_str(), opts.port);
    std::printf("  %-11s %s\n", "run", label.empty() ? "(unlabeled)" : label.c_str());
    std::printf("  %-11s %s\n", "phase", phase.empty() ? "-" : phase.c_str());
    if (planned > 0.0) {
        std::printf("  %-11s %.0f / %.0f  (%.1f%%)\n", "trials", completed, planned,
                    100.0 * completed / planned);
    } else {
        std::printf("  %-11s %.0f\n", "trials", completed);
    }
    std::printf("  %-11s %.0f\n", "censored", censored);
    std::printf("  %-11s %.0f trials/s\n", "rate", rate);
    std::printf("  %-11s %s\n", "ETA", fmt_duration(eta).c_str());
    std::printf("  %-11s %s\n", "checkpoint",
                ckpt_age < 0.0 ? "-" : (fmt_duration(ckpt_age) + " ago").c_str());
    std::printf("  %-11s %s\n", "elapsed", fmt_duration(elapsed).c_str());
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    const options opts = parse(argc, argv);
    std::signal(SIGPIPE, SIG_IGN);
    const bool redraw = !opts.once && !opts.raw && ::isatty(::fileno(stdout)) != 0;
    for (;;) {
        // The exporter answers every path with Connection: close; a
        // non-200 reply or one past the 2 s deadline reads as no response.
        int status = 0;
        std::optional<std::string> body = levy::serve::http_get(
            opts.host, static_cast<unsigned short>(opts.port), "/progress", 2.0, &status);
        if (status != 200) body.reset();
        if (!body.has_value()) {
            if (opts.once) {
                std::fprintf(stderr, "levytop: no response from %s:%d\n",
                             opts.host.c_str(), opts.port);
                return 1;
            }
            if (redraw) std::fputs("\x1b[H\x1b[2J", stdout);
            std::printf("levytop — waiting for http://%s:%d/progress ...\n",
                        opts.host.c_str(), opts.port);
            std::fflush(stdout);
        } else if (opts.raw) {
            std::fputs(body->c_str(), stdout);
            std::fflush(stdout);
        } else {
            render(*body, opts, redraw);
        }
        if (opts.once) return 0;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts.interval));
    }
}
