#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "src/serve/http.h"

#if LEVY_SERVE_HAVE_POSIX_SOCKETS
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace levy::serve {
namespace {

TEST(HttpParse, RequestLineSplitsPathAndQuery) {
    http_request req;
    ASSERT_TRUE(parse_request_line("GET /query?alpha=2.5&ell=64&k=8 HTTP/1.1", req));
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/query");
    ASSERT_EQ(req.query.size(), 3u);
    ASSERT_NE(req.param("alpha"), nullptr);
    EXPECT_EQ(*req.param("alpha"), "2.5");
    ASSERT_NE(req.param("ell"), nullptr);
    EXPECT_EQ(*req.param("ell"), "64");
    EXPECT_EQ(req.param("missing"), nullptr);
}

TEST(HttpParse, PercentDecodingAndValuelessKeys) {
    http_request req;
    ASSERT_TRUE(parse_request_line("GET /a%20b?x=1%2B2&flag HTTP/1.1", req));
    EXPECT_EQ(req.path, "/a b");
    ASSERT_NE(req.param("x"), nullptr);
    EXPECT_EQ(*req.param("x"), "1+2");
    ASSERT_NE(req.param("flag"), nullptr);
    EXPECT_EQ(*req.param("flag"), "");
}

TEST(HttpParse, RejectsMalformedRequestLines) {
    http_request req;
    EXPECT_FALSE(parse_request_line("", req));
    EXPECT_FALSE(parse_request_line("GET", req));
    EXPECT_FALSE(parse_request_line("GET /x", req));
    EXPECT_FALSE(parse_request_line("GET /x HTTP/1.1 extra", req));
    EXPECT_FALSE(parse_request_line("GET nopath HTTP/1.1", req));
}

TEST(HttpParse, UrlDecodePassesInvalidEscapesThrough) {
    EXPECT_EQ(url_decode("a%2Fb"), "a/b");
    EXPECT_EQ(url_decode("bad%zz"), "bad%zz");
    EXPECT_EQ(url_decode("trunc%2"), "trunc%2");
}

TEST(HttpRender, ResponseCarriesLengthAndRetryAfter) {
    http_response resp;
    resp.status = 503;
    resp.body = "overloaded";
    resp.retry_after_seconds = 7;
    const std::string bytes = render_response(resp);
    EXPECT_NE(bytes.find("HTTP/1.1 503 Service Unavailable\r\n"), std::string::npos);
    EXPECT_NE(bytes.find("Content-Length: 10\r\n"), std::string::npos);
    EXPECT_NE(bytes.find("Retry-After: 7\r\n"), std::string::npos);
    EXPECT_NE(bytes.find("Connection: close\r\n"), std::string::npos);
    EXPECT_EQ(bytes.substr(bytes.size() - 10), "overloaded");
}

TEST(HttpRender, NoRetryAfterByDefault) {
    http_response resp;
    resp.body = "ok";
    EXPECT_EQ(render_response(resp).find("Retry-After"), std::string::npos);
}

#if LEVY_SERVE_HAVE_POSIX_SOCKETS

/// Tight limits so the slow-client tests finish in well under a second.
http_limits tight_limits() {
    http_limits limits;
    limits.io_timeout_seconds = 0.05;
    limits.head_deadline_seconds = 0.25;
    limits.max_head_bytes = 512;
    return limits;
}

TEST(HttpReadHead, ParsesACompleteHead) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string head = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_TRUE(send_all(fds[1], head));
    http_request req;
    EXPECT_EQ(read_request_head(fds[0], tight_limits(), req), head_status::ok);
    EXPECT_EQ(req.path, "/metrics");
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(HttpReadHead, SilentClientTimesOutAtTheDeadline) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    http_request req;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(read_request_head(fds[0], tight_limits(), req), head_status::timeout);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_GE(elapsed, 0.2);  // waited out the total deadline...
    EXPECT_LT(elapsed, 2.0);  // ...but nowhere near unbounded
    ::close(fds[0]);
    ::close(fds[1]);
}

// The slow-loris regression: a drip-feed client sends one byte per
// io_timeout interval, so every per-recv timer is reset and a server with
// only per-recv timeouts reads forever. The *total* head deadline must cut
// the connection off regardless.
TEST(HttpReadHead, DripFeedClientCannotOutliveTheTotalDeadline) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const http_limits limits = tight_limits();
    std::thread drip([fd = fds[1]] {
        // Never a terminator, never a pause long enough to trip a per-recv
        // timer on its own. MSG_NOSIGNAL: the reader hanging up mid-drip is
        // the expected outcome, not a SIGPIPE.
        for (int i = 0; i < 40; ++i) {
            if (::send(fd, "x", 1, MSG_NOSIGNAL) <= 0) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    http_request req;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(read_request_head(fds[0], limits, req), head_status::timeout);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_LT(elapsed, limits.head_deadline_seconds + 0.5);
    ::close(fds[0]);
    drip.join();
    ::close(fds[1]);
}

TEST(HttpReadHead, OversizedHeadIsRejectedNotBuffered) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string big = "GET /" + std::string(2048, 'a') + " HTTP/1.1\r\n";
    ASSERT_TRUE(send_all(fds[1], big));
    http_request req;
    EXPECT_EQ(read_request_head(fds[0], tight_limits(), req), head_status::too_large);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(HttpReadHead, ClosedPeerReportsClosed) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(send_all(fds[1], "GET /x HT"));
    ::close(fds[1]);
    http_request req;
    EXPECT_EQ(read_request_head(fds[0], tight_limits(), req), head_status::closed);
    ::close(fds[0]);
}

TEST(HttpReadHead, GarbageRequestLineIsMalformed) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(send_all(fds[1], "not an http request line\r\n\r\n"));
    http_request req;
    EXPECT_EQ(read_request_head(fds[0], tight_limits(), req), head_status::malformed);
    ::close(fds[0]);
    ::close(fds[1]);
}

/// Accepts exactly one connection on an ephemeral port and hands it to
/// `handler` on a background thread. The destructor joins, so handlers must
/// terminate once the client hangs up (their sends start failing).
class one_shot_server {
public:
    template <class Handler>
    explicit one_shot_server(Handler handler) {
        const auto [fd, port] = listen_on(0);
        listen_fd_ = fd;
        port_ = port;
        worker_ = std::thread([fd, handler] {
            const int client = ::accept(fd, nullptr, nullptr);
            if (client >= 0) {
                handler(client);
                ::close(client);
            }
        });
    }
    ~one_shot_server() {
        worker_.join();
        ::close(listen_fd_);
    }
    [[nodiscard]] unsigned short port() const noexcept { return port_; }

private:
    int listen_fd_ = -1;
    unsigned short port_ = 0;
    std::thread worker_;
};

/// Read the client's request head before answering: closing a socket with
/// unread received data sends an RST, which can discard the response from
/// the client's buffer — a real server always consumes the request first.
void drain_request(int fd) {
    std::string head;
    char buf[512];
    while (head.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) return;
        head.append(buf, static_cast<std::size_t>(n));
    }
}

// The client-side slow-loris regression, mirror image of the server test
// above: a drip-feed *server* trickles one byte per interval without ever
// closing, so every per-recv timer is reset and a client with only per-recv
// timeouts reads (and buffers) for as long as the server cares to drip. The
// total response deadline must cut it off at ~timeout_seconds.
TEST(HttpGetClient, DripFeedServerCannotOutliveTheTotalDeadline) {
    one_shot_server server([](int client) {
        drain_request(client);
        (void)send_all(client, "HTTP/1.1 200 OK\r\n\r\n");
        // Never closes on its own: 150 drips x 20 ms = 3 s of trickle. The
        // client hanging up mid-drip makes send fail, which is the expected
        // way out (MSG_NOSIGNAL inside send_all turns SIGPIPE into -1).
        for (int i = 0; i < 150; ++i) {
            if (::send(client, "x", 1, MSG_NOSIGNAL) <= 0) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    const auto start = std::chrono::steady_clock::now();
    const auto body = http_get(server.port(), "/", /*timeout_seconds=*/0.3);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_FALSE(body.has_value());  // deadline tears the response
    EXPECT_GE(elapsed, 0.25);        // waited out the total deadline...
    EXPECT_LT(elapsed, 1.0);         // ...not the server's 3 s of drip
}

TEST(HttpGetClient, OversizedResponseIsBoundedNotBuffered) {
    one_shot_server server([](int client) {
        drain_request(client);
        (void)send_all(client, "HTTP/1.1 200 OK\r\n\r\n" + std::string(1 << 16, 'z'));
    });
    int status = -1;
    const auto body = http_get(server.port(), "/", /*timeout_seconds=*/2.0, &status,
                               /*max_response_bytes=*/1024);
    EXPECT_FALSE(body.has_value());
    EXPECT_EQ(status, 0);
}

// The atoi regression: a garbage status field used to parse as "status 0"
// and the body was still returned as if the exchange were fine. A response
// whose status cannot be read strictly must read as no response at all.
TEST(HttpGetClient, GarbageStatusFieldYieldsNoResponse) {
    const std::string garbage[] = {
        "HTTP/1.1 ABC Bad\r\n\r\nbody",   // non-numeric field
        "HTTP/1.1 42 Early\r\n\r\nbody",  // two digits then a space
        "HTTP/1.1 9999 Big\r\n\r\nbody",  // four digits
        "HTTP/1.1 099 Pad\r\n\r\nbody",   // below the 1xx-5xx range
    };
    for (const std::string& head : garbage) {
        one_shot_server server([head](int client) {
            drain_request(client);
            (void)send_all(client, head);
        });
        int status = -1;
        const auto body = http_get(server.port(), "/", 2.0, &status);
        EXPECT_FALSE(body.has_value()) << head;
        EXPECT_EQ(status, 0) << head;
    }
}

TEST(HttpGetClient, WellFormedErrorStatusStillParses) {
    one_shot_server server([](int client) {
        drain_request(client);
        (void)send_all(client, "HTTP/1.1 404 Not Found\r\n\r\noops");
    });
    int status = -1;
    const auto body = http_get(server.port(), "/", 2.0, &status);
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(*body, "oops");
    EXPECT_EQ(status, 404);
}

TEST(HttpGetClient, HostArgumentResolvesNamesAndRejectsUnresolvable) {
    for (const std::string host : {"localhost", "127.0.0.1"}) {
        one_shot_server server([](int client) {
            drain_request(client);
            (void)send_all(client, "HTTP/1.1 200 OK\r\n\r\nhello");
        });
        int status = -1;
        const auto body = http_get(host, server.port(), "/", 2.0, &status);
        ASSERT_TRUE(body.has_value()) << host;
        EXPECT_EQ(*body, "hello");
        EXPECT_EQ(status, 200);
    }
    // Strings no lookup is made for: a 64-byte label (DNS allows 63), an
    // empty label, a space, a CRLF that would smuggle a header into the
    // request, and the empty string. They are refused before getaddrinfo,
    // so no query leaves the machine, and none of them reaches the one-shot
    // listener: its single answer is still there for the request at the end.
    one_shot_server server([](int client) {
        drain_request(client);
        (void)send_all(client, "HTTP/1.1 200 OK\r\n\r\nlast");
    });
    for (const std::string& host :
         {std::string(64, 'a') + ".invalid", std::string("a..invalid"),
          std::string("no such host"), std::string("127.0.0.1\r\nX-Injected: 1"),
          std::string()}) {
        int status = -1;
        EXPECT_FALSE(http_get(host, server.port(), "/", 1.0, &status).has_value()) << host;
        EXPECT_EQ(status, 0);
        EXPECT_EQ(connect_client(host, server.port(), 1.0), -1) << host;
        EXPECT_EQ(host_header(host), std::nullopt) << host;
    }
    EXPECT_EQ(http_get("localhost", server.port(), "/", 2.0), std::optional<std::string>("last"));
    // Names a resolver may answer pass through untouched, '_' included
    // (container service names); an IPv6 literal is bracketed and loses its
    // zone ID in the Host header. Only the header is checked here: looking
    // these names up would query DNS.
    EXPECT_EQ(host_header("bench_exporter"), "bench_exporter");
    EXPECT_EQ(host_header("node-1.example"), "node-1.example");
    EXPECT_EQ(host_header(std::string(63, 'a') + ".b"), std::string(63, 'a') + ".b");
    EXPECT_EQ(host_header("127.0.0.1"), "127.0.0.1");
    EXPECT_EQ(host_header("::1"), "[::1]");
    EXPECT_EQ(host_header("fe80::1%eth0"), "[fe80::1]");
    EXPECT_EQ(host_header("caf\xc3\xa9.example"), std::nullopt);
    EXPECT_EQ(host_header("tab\there"), std::nullopt);
    EXPECT_EQ(host_header("del\x7f"), std::nullopt);
    EXPECT_EQ(host_header(std::string(254, 'a')), std::nullopt);
}

/// Listen on [::1] at an ephemeral port; returns (fd, port), or fd -1 when
/// the host has no IPv6 loopback.
std::pair<int, unsigned short> listen_on_ipv6_loopback() {
    const int fd = ::socket(AF_INET6, SOCK_STREAM, 0);
    if (fd < 0) return {-1, 0};
    sockaddr_in6 addr{};
    addr.sin6_family = AF_INET6;
    addr.sin6_addr = in6addr_loopback;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 4) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        ::close(fd);
        return {-1, 0};
    }
    return {fd, ntohs(addr.sin6_port)};
}

// An IPv6 literal, with or without a zone ID, goes to getaddrinfo as given
// and reaches the server with the bracketed, zone-less Host header. The
// zone is numeric because glibc takes an interface name only for a
// link-local address, and loopback is not link-local.
TEST(HttpGetClient, Ipv6LiteralWithZoneIdConnectsAndSendsBracketedHost) {
    for (const std::string host : {"::1", "::1%1"}) {
        const std::pair<int, unsigned short> listener = listen_on_ipv6_loopback();
        if (listener.first < 0) GTEST_SKIP() << "no IPv6 loopback";
        const int fd = listener.first;
        std::string head;
        std::thread server([fd, &head] {
            pollfd ready{fd, POLLIN, 0};
            if (::poll(&ready, 1, 2000) != 1) return;  // the client never came
            const int client = ::accept(fd, nullptr, nullptr);
            if (client < 0) return;
            char buf[512];
            while (head.find("\r\n\r\n") == std::string::npos) {
                const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
                if (n <= 0) break;
                head.append(buf, static_cast<std::size_t>(n));
            }
            (void)send_all(client, "HTTP/1.1 200 OK\r\n\r\nsix");
            ::close(client);
        });
        const auto body = http_get(host, listener.second, "/", 2.0);
        server.join();
        ::close(fd);
        EXPECT_EQ(body, std::optional<std::string>("six")) << host;
        EXPECT_NE(head.find("\r\nHost: [::1]\r\n"), std::string::npos) << head;
    }
}

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS

}  // namespace
}  // namespace levy::serve
