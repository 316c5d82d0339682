#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/server.h"

#if LEVY_SERVE_HAVE_POSIX_SOCKETS

#include <sys/socket.h>
#include <unistd.h>

namespace levy::serve {
namespace {

std::string scratch_path(const char* name) {
    return std::string(::testing::TempDir()) + name;
}

serve_options fast_opts() {
    serve_options opts;
    opts.workers = 1;
    opts.steps_per_ms = 1000;
    opts.default_trials = 32;
    opts.default_deadline_ms = 60'000;
    opts.seed = 0xFEEDu;
    return opts;
}

http_request get(const std::string& path_and_query) {
    http_request req;
    const bool ok =
        parse_request_line("GET " + path_and_query + " HTTP/1.1", req);
    EXPECT_TRUE(ok) << path_and_query;
    return req;
}

bool body_has(const http_response& resp, const std::string& needle) {
    return resp.body.find(needle) != std::string::npos;
}

class ServerHandleTest : public ::testing::Test {
protected:
    // handle() is the socket-free worker entry point; no start() needed.
    server srv{fast_opts()};
    std::uint64_t seq = 0;

    http_response query(const std::string& q) { return srv.handle(get(q), seq++); }
};

TEST_F(ServerHandleTest, HealthzAndUnknownPath) {
    EXPECT_EQ(query("/healthz").status, 200);
    EXPECT_EQ(query("/nope").status, 404);
}

TEST_F(ServerHandleTest, ExactQueryReportsFullMonteCarlo) {
    const http_response resp =
        query("/query?alpha=2.5&ell=8&k=2&budget=500&trials=64&deadline_ms=60000");
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"quality\":\"exact\"")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"cached\":false")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"censored\":false")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"trials_run\":64")) << resp.body;
    EXPECT_EQ(srv.stats().exact, 1u);
}

TEST_F(ServerHandleTest, TightDeadlineAnswersRepeatQueryFromTheCache) {
    // A query whose full batch fits its deadline always recomputes (that is
    // what keeps restart replays byte-identical); the cache serves when the
    // deadline does NOT fit. Populate, then repeat under pressure.
    const std::string q = "/query?alpha=2.5&ell=8&k=2&budget=500&trials=64";
    const http_response first = query(q);
    ASSERT_EQ(first.status, 200) << first.body;
    const http_response tight = query(q + "&deadline_ms=1");
    ASSERT_EQ(tight.status, 200) << tight.body;
    EXPECT_TRUE(body_has(tight, "\"cached\":true")) << tight.body;
    EXPECT_TRUE(body_has(tight, "\"quality\":\"exact\"")) << tight.body;
    EXPECT_EQ(srv.stats().cache_hits, 1u);
    // The cached answer carries the estimate the full run produced.
    EXPECT_TRUE(body_has(first, "\"probability\":"));
}

TEST_F(ServerHandleTest, TightDeadlineInterpolatesFromNeighboringCells) {
    // Populate the two alpha grid cells bracketing 2.515 (pitch 1/32, so
    // corners 2.5 and 2.53125), both in the budget=500 octave cell (72).
    ASSERT_EQ(query("/query?alpha=2.5&ell=8&k=2&budget=500&trials=32").status, 200);
    ASSERT_EQ(query("/query?alpha=2.53125&ell=8&k=2&budget=500&trials=32").status, 200);
    // budget=470 rounds to octave cell 71 — empty, so the exact-cell rung
    // misses — while its ceil corner is the populated cell 72. With a
    // deadline too tight for a fresh run, the answer is a linear
    // interpolation between the two alpha corners along that budget row.
    const http_response resp =
        query("/query?alpha=2.515&ell=8&k=2&budget=470&trials=32&deadline_ms=1");
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"quality\":\"interpolated\"")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"grid_points\":2")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"trials_run\":0")) << resp.body;
    EXPECT_EQ(srv.stats().interpolated, 1u);
}

TEST_F(ServerHandleTest, TightDeadlineWithColdCacheDegradesAndSaysSo) {
    // Nothing cached anywhere near: the ladder bottoms out in a truncated
    // ("degraded") run whose step watchdog enforces the allowance.
    const http_response resp =
        query("/query?alpha=2.5&ell=64&k=2&budget=100000&trials=1000&deadline_ms=1");
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"quality\":\"degraded\"")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"max_steps\":")) << resp.body;
    EXPECT_EQ(srv.stats().degraded, 1u);
}

TEST_F(ServerHandleTest, BadParametersAnswer400NamingTheProblem) {
    EXPECT_EQ(query("/query?ell=8").status, 400);                  // missing alpha
    EXPECT_EQ(query("/query?alpha=2.5").status, 400);              // missing ell
    EXPECT_EQ(query("/query?alpha=0.5&ell=8").status, 400);        // alpha <= 1
    EXPECT_EQ(query("/query?alpha=2.5&ell=1").status, 400);        // ell < 2
    EXPECT_EQ(query("/query?alpha=2.5&ell=8&k=0").status, 400);    // k < 1
    EXPECT_EQ(query("/query?alpha=nan&ell=8").status, 400);        // non-finite
    EXPECT_EQ(query("/query?alpha=2.5&ell=8&trials=junk").status, 400);
    EXPECT_EQ(query("/query?alpha=2.5&ell=8&deadline_ms=0").status, 400);
    EXPECT_EQ(srv.stats().bad_requests, 8u);
    // Bad requests never start a Monte-Carlo run.
    EXPECT_EQ(srv.stats().exact + srv.stats().degraded, 0u);
}

TEST_F(ServerHandleTest, PlanAnswersTheoryNumbers) {
    const http_response resp = srv.handle(get("/plan?k=64&ell=1000"), seq++);
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"alpha_star\":")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"budget\":")) << resp.body;
    EXPECT_EQ(query("/plan?k=64").status, 400);  // missing ell
    // The counter tracks routed /plan requests, rejected ones included.
    EXPECT_EQ(srv.stats().plans, 2u);
}

TEST_F(ServerHandleTest, StatsEndpointReportsCounters) {
    ASSERT_EQ(query("/query?alpha=2.5&ell=8&k=2&budget=500&trials=16").status, 200);
    const http_response resp = query("/stats");
    ASSERT_EQ(resp.status, 200);
    EXPECT_TRUE(body_has(resp, "\"queries\":1")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"exact\":1")) << resp.body;
    EXPECT_TRUE(body_has(resp, "\"admitted\":")) << resp.body;
}

TEST_F(ServerHandleTest, SeedParameterSelectsTheStream) {
    const http_response a =
        query("/query?alpha=2.5&ell=8&k=2&budget=500&trials=64&seed=1");
    const http_response b =
        query("/query?alpha=2.5&ell=12&k=2&budget=500&trials=64&seed=2");
    ASSERT_EQ(a.status, 200);
    ASSERT_EQ(b.status, 200);
    EXPECT_TRUE(body_has(a, "\"seed\":\"0x0000000000000001\"")) << a.body;
    EXPECT_TRUE(body_has(b, "\"seed\":\"0x0000000000000002\"")) << b.body;
}

// The determinism contract behind the kill -9 selftest, in-process: same
// query + same server config + same persisted cache => same bytes, across
// a full save/destroy/reload cycle.
TEST(ServerRestart, AnswersAreByteIdenticalAcrossCacheReload) {
    const std::string path = scratch_path("server_restart_cache.bin");
    std::remove(path.c_str());
    serve_options opts = fast_opts();
    opts.cache_path = path;
    const std::string exact_q = "/query?alpha=2.5&ell=8&k=2&budget=500&trials=64";
    const std::string tight_q = exact_q + "&deadline_ms=1";

    std::string exact1, tight1;
    {
        server srv(opts);
        exact1 = srv.handle(get(exact_q), 0).body;   // full run, fills cache
        tight1 = srv.handle(get(tight_q), 1).body;   // answered from cache
        EXPECT_TRUE(tight1.find("\"cached\":true") != std::string::npos) << tight1;
        srv.flush_cache();
    }  // "restart": the first server instance is gone
    {
        server srv(opts);
        // start() loads the cache; handle() alone doesn't, so load here.
        EXPECT_GT(srv.cache().load(path), 0u);
        const std::string tight2 = srv.handle(get(tight_q), 0).body;
        const std::string exact2 = srv.handle(get(exact_q), 1).body;
        EXPECT_EQ(tight2, tight1);
        EXPECT_EQ(exact2, exact1);
    }
    std::remove(path.c_str());
}

TEST(ServerLifecycle, StartServesOverRealSocketsAndStopsIdempotently) {
    serve_options opts = fast_opts();
    opts.workers = 2;
    server srv(opts);
    const unsigned short port = srv.start();
    ASSERT_NE(port, 0u);
    int status = 0;
    const auto health = http_get(port, "/healthz", 5.0, &status);
    ASSERT_TRUE(health.has_value());
    EXPECT_EQ(status, 200);
    const auto ans =
        http_get(port, "/query?alpha=2.5&ell=8&k=2&budget=500&trials=16", 30.0, &status);
    ASSERT_TRUE(ans.has_value());
    EXPECT_EQ(status, 200) << *ans;
    srv.stop();
    srv.stop();  // idempotent
    EXPECT_FALSE(srv.running());
}

TEST(ServerLifecycle, StartRefusesACachePathThatIsNoRegularFile) {
    serve_options opts = fast_opts();
    opts.cache_path = ::testing::TempDir();  // a directory
    server srv(opts);
    try {
        (void)srv.start();
        FAIL() << "started on the directory " << opts.cache_path;
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(opts.cache_path), std::string::npos) << e.what();
    }
    EXPECT_FALSE(srv.running());
}

/// One raw GET over a fresh connection: every byte the server sent up to
/// its orderly close, or "" when the connection was reset first.
std::string raw_get(unsigned short port, const std::string& path) {
    const int fd = connect_client(port, 5.0);
    if (fd < 0) return {};
    std::string response;
    ssize_t n = -1;
    if (send_all(fd, "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")) {
        char buf[1024];
        while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
            response.append(buf, static_cast<std::size_t>(n));
        }
    }
    ::close(fd);
    return n == 0 ? response : std::string();
}

// Shed path: with the only worker busy and the queue full, every further
// client must read a complete 503 with Retry-After. Closing a shed socket
// with its request unread makes the kernel send RST, which loses the 503
// in flight; the acceptor must drain the request first — without letting a
// silent shed client stall the clients behind it.
TEST(ServerShedding, EveryShedClientReadsACompleteRetryAfter503) {
    serve_options opts = fast_opts();
    opts.queue_capacity = 1;
    opts.retry_after_seconds = 7;
    opts.limits.io_timeout_seconds = 30.0;  // a drain that blocked would show
    opts.limits.head_deadline_seconds = 30.0;
    server srv(opts);
    const unsigned short port = srv.start();

    // Silent clients until one is in service (the worker blocks reading its
    // head) and one is queued. Closed before `srv` stops, even on failure,
    // so the worker is released at once.
    struct closer {
        std::vector<int> fds;
        ~closer() {
            for (const int fd : fds) {
                if (fd >= 0) ::close(fd);
            }
        }
    } silent;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (srv.stats().admission.admitted < 2 && std::chrono::steady_clock::now() < deadline) {
        silent.fds.push_back(connect_client(port, 5.0));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_EQ(srv.stats().admission.admitted, 2u);
    // One more silent client: shed, and left open for the whole loop below.
    silent.fds.push_back(connect_client(port, 5.0));

    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 64; ++i) {
        const std::string resp = raw_get(port, "/query?alpha=2.5&ell=8&k=2&budget=500");
        ASSERT_EQ(resp.rfind("HTTP/1.1 503 ", 0), 0u) << "client " << i << ": " << resp;
        EXPECT_NE(resp.find("Retry-After: 7\r\n"), std::string::npos) << resp;
        const std::size_t body = resp.find("\r\n\r\n");
        ASSERT_NE(body, std::string::npos) << resp;
        EXPECT_NE(resp.find("Content-Length: " + std::to_string(resp.size() - body - 4) + "\r\n"),
                  std::string::npos)
            << "truncated 503: " << resp;
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
    EXPECT_EQ(srv.stats().admission.admitted, 2u);
}

TEST(ServerOptions, ConstructorRejectsDegenerateConfigs) {
    const auto bad = [](auto mutate) {
        serve_options opts;
        mutate(opts);
        EXPECT_THROW(server s(opts), std::invalid_argument);
    };
    bad([](serve_options& o) { o.workers = 0; });
    bad([](serve_options& o) { o.queue_capacity = 0; });
    bad([](serve_options& o) { o.default_deadline_ms = 0; });
    bad([](serve_options& o) { o.steps_per_ms = 0; });
    bad([](serve_options& o) { o.default_trials = 0; });
    bad([](serve_options& o) { o.cache_flush_every = 0; });
}

}  // namespace
}  // namespace levy::serve

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS
