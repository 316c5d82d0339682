#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace levy::serve {

/// --- Shared POSIX HTTP/1.1 plumbing --------------------------------------
///
/// The one place in the tree that reads and writes HTTP bytes. Both the
/// read-only metrics exporter (src/obs/exporter) and the levyserve query
/// daemon (src/serve/server) sit on these helpers, so the socket-layer
/// robustness rules are enforced once:
///
///   - every connection gets SO_RCVTIMEO / SO_SNDTIMEO, so a single recv or
///     send can never block a serving thread indefinitely;
///   - the request head is read under a *total* wall-clock deadline, not
///     just a per-recv timeout — a slow-loris client dripping one byte per
///     second resets a per-recv timer forever but cannot outlive the total
///     budget;
///   - the head is size-bounded (`max_head_bytes`); an oversized head is an
///     error, never unbounded buffering.
///
/// Everything here is transport: no levy simulation state, no registry
/// access, no wall-clock content in any parsed structure.

/// Socket-layer robustness knobs; defaults suit an observability endpoint.
struct http_limits {
    /// Hard cap on the request-head bytes buffered per connection.
    std::size_t max_head_bytes = 8192;
    /// Per-recv/send socket timeout (SO_RCVTIMEO / SO_SNDTIMEO).
    double io_timeout_seconds = 2.0;
    /// Total wall-clock budget for reading one request head. Must cover at
    /// least one io_timeout; a dripping client is cut off here.
    double head_deadline_seconds = 5.0;
};

/// A parsed request line: method, raw target, and the target split into a
/// path plus decoded query parameters (insertion order preserved).
struct http_request {
    std::string method;
    std::string target;  ///< raw request target, e.g. "/query?alpha=2.5"
    std::string path;    ///< target up to '?', percent-decoded
    std::vector<std::pair<std::string, std::string>> query;

    /// First value of query parameter `key`, or nullptr when absent.
    [[nodiscard]] const std::string* param(const std::string& key) const noexcept;
};

/// Outcome of read_request_head.
enum class head_status : std::uint8_t {
    ok,         ///< complete head parsed into the request
    timeout,    ///< total head deadline (or a silent socket) expired
    too_large,  ///< head exceeded max_head_bytes before terminating
    malformed,  ///< terminator seen but the request line does not parse
    closed,     ///< peer closed (or reset) before a complete head
};

/// Human-readable tag for a head_status ("ok", "timeout", ...).
[[nodiscard]] const char* head_status_name(head_status s) noexcept;

/// Percent-decode `text` ('+' is not special — query values here are
/// numbers and short tokens). Invalid escapes pass through verbatim.
[[nodiscard]] std::string url_decode(const std::string& text);

/// Parse "METHOD /path?k=v&k2=v2 HTTP/1.1" into an http_request. Returns
/// false when the line does not have the three space-separated fields.
[[nodiscard]] bool parse_request_line(const std::string& line, http_request& out);

/// A response to render. `retry_after_seconds >= 0` adds a Retry-After
/// header (the 503 load-shedding contract); extra headers ride along as
/// (name, value) pairs.
struct http_response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
    int retry_after_seconds = -1;
    std::vector<std::pair<std::string, std::string>> headers;
};

/// Reason phrase for the status codes this tree emits.
[[nodiscard]] const char* status_text(int status) noexcept;

/// Serialize status line + headers + body (Connection: close, explicit
/// Content-Length) into one byte string.
[[nodiscard]] std::string render_response(const http_response& resp);

#if defined(__unix__) || defined(__APPLE__)
#define LEVY_SERVE_HAVE_POSIX_SOCKETS 1
#else
#define LEVY_SERVE_HAVE_POSIX_SOCKETS 0
#endif

#if LEVY_SERVE_HAVE_POSIX_SOCKETS

/// Apply `limits`' SO_RCVTIMEO / SO_SNDTIMEO to `fd`.
void apply_socket_timeouts(int fd, const http_limits& limits) noexcept;

/// Read one request head from `fd` (which should already carry the socket
/// timeouts) under the limits' byte bound and total deadline, then parse
/// the request line. On anything but `ok`, `out` holds whatever partial
/// state was parsed (for logging); treat it as untrusted.
[[nodiscard]] head_status read_request_head(int fd, const http_limits& limits,
                                            http_request& out);

/// Write all of `bytes`; returns false if the peer went away first (callers
/// treat responses as best-effort — a vanished client is not an error).
bool send_all(int fd, const std::string& bytes) noexcept;

/// Bind + listen on 0.0.0.0:`port` (0 = ephemeral); returns (fd, bound
/// port). Throws std::runtime_error when the socket cannot be set up.
[[nodiscard]] std::pair<int, unsigned short> listen_on(unsigned short port);

/// --- Minimal client (tests, levyserve selftest, load generator, levytop) --

/// The Host header value http_get sends for `host` (an IPv6 literal in
/// brackets, without its zone ID, per RFC 7230 and RFC 6874), or nullopt
/// when `host` is refused: empty, over 253 bytes, holding a control byte,
/// space, DEL or non-ASCII byte (which could split the request head), or
/// with an empty '.'-label or one over 63 bytes (which no DNS query can
/// carry). Names with '_' and zone IDs such as `fe80::1%eth0` pass.
[[nodiscard]] std::optional<std::string> host_header(const std::string& host);

/// Connect to `host`:`port` with recv/send timeouts applied; returns the
/// fd, or -1 when `host` is refused (see host_header; no lookup is made),
/// does not resolve, or no address accepts before `timeout_seconds` have
/// passed. `host` is an IP literal or a name, both resolved by getaddrinfo;
/// each address gets only the time left. Name resolution counts against the
/// deadline but cannot be cut short: getaddrinfo has no timeout, so a slow
/// resolver can overrun it (an IP literal never reaches a resolver). The
/// fault drills use this directly to play misbehaving clients (stalls,
/// mid-response resets).
[[nodiscard]] int connect_client(const std::string& host, unsigned short port,
                                 double timeout_seconds) noexcept;

/// connect_client against 127.0.0.1.
[[nodiscard]] int connect_client(unsigned short port, double timeout_seconds) noexcept;

/// One blocking GET of `path` against `host`:`port` over a fresh
/// connection. Returns nullopt when unresolvable or unreachable, the
/// response is torn, the status line is not a well-formed three-digit
/// HTTP/1.1 status, the response exceeds `max_response_bytes`, or the
/// *total* wall clock exceeds `timeout_seconds` — the client-side mirror of
/// read_request_head's slow-loris rule: a server dripping one byte per
/// recv-timeout window resets a per-recv timer forever but cannot outlive
/// the total deadline. The deadline covers connecting as connect_client
/// describes, name resolution excepted. `status_out`, when given, receives
/// the numeric status (0 on no reply or a garbage status line).
[[nodiscard]] std::optional<std::string> http_get(const std::string& host, unsigned short port,
                                                  const std::string& path,
                                                  double timeout_seconds = 5.0,
                                                  int* status_out = nullptr,
                                                  std::size_t max_response_bytes = 1 << 26);

/// http_get against 127.0.0.1.
[[nodiscard]] std::optional<std::string> http_get(unsigned short port,
                                                  const std::string& path,
                                                  double timeout_seconds = 5.0,
                                                  int* status_out = nullptr,
                                                  std::size_t max_response_bytes = 1 << 26);

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS

}  // namespace levy::serve
