#include "src/serve/http.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#if LEVY_SERVE_HAVE_POSIX_SOCKETS
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace levy::serve {
namespace {

int hex_digit(char c) noexcept {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

/// Split `text` on `sep`, appending each piece to `out` (empty pieces kept).
void split_into(const std::string& text, char sep, std::vector<std::string>& out) {
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(text.substr(start));
            return;
        }
        out.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

}  // namespace

const std::string* http_request::param(const std::string& key) const noexcept {
    for (const auto& [k, v] : query) {
        if (k == key) return &v;
    }
    return nullptr;
}

const char* head_status_name(head_status s) noexcept {
    switch (s) {
        case head_status::ok: return "ok";
        case head_status::timeout: return "timeout";
        case head_status::too_large: return "too_large";
        case head_status::malformed: return "malformed";
        case head_status::closed: return "closed";
    }
    return "unknown";
}

std::string url_decode(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '%' && i + 2 < text.size()) {
            const int hi = hex_digit(text[i + 1]);
            const int lo = hex_digit(text[i + 2]);
            if (hi >= 0 && lo >= 0) {
                out += static_cast<char>(hi * 16 + lo);
                i += 2;
                continue;
            }
        }
        out += text[i];
    }
    return out;
}

bool parse_request_line(const std::string& line, http_request& out) {
    const std::size_t sp1 = line.find(' ');
    if (sp1 == std::string::npos || sp1 == 0) return false;
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos || sp2 == sp1 + 1) return false;
    if (line.find(' ', sp2 + 1) != std::string::npos) return false;
    out.method = line.substr(0, sp1);
    out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t qmark = out.target.find('?');
    out.path = url_decode(out.target.substr(0, qmark));
    out.query.clear();
    if (qmark != std::string::npos) {
        std::vector<std::string> pairs;
        split_into(out.target.substr(qmark + 1), '&', pairs);
        for (const std::string& pair : pairs) {
            if (pair.empty()) continue;
            const std::size_t eq = pair.find('=');
            if (eq == std::string::npos) {
                out.query.emplace_back(url_decode(pair), std::string{});
            } else {
                out.query.emplace_back(url_decode(pair.substr(0, eq)),
                                       url_decode(pair.substr(eq + 1)));
            }
        }
    }
    return !out.path.empty() && out.path[0] == '/';
}

const char* status_text(int status) noexcept {
    switch (status) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 408: return "Request Timeout";
        case 431: return "Request Header Fields Too Large";
        case 500: return "Internal Server Error";
        case 503: return "Service Unavailable";
        default: return "Error";
    }
}

std::string render_response(const http_response& resp) {
    std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                      status_text(resp.status) + "\r\n";
    out += "Content-Type: " + resp.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
    if (resp.retry_after_seconds >= 0) {
        out += "Retry-After: " + std::to_string(resp.retry_after_seconds) + "\r\n";
    }
    for (const auto& [name, value] : resp.headers) {
        out += name + ": " + value + "\r\n";
    }
    out += "Connection: close\r\n\r\n";
    out += resp.body;
    return out;
}

#if LEVY_SERVE_HAVE_POSIX_SOCKETS

namespace {

timeval to_timeval(double seconds) noexcept {
    timeval tv{};
    if (seconds < 0.0) seconds = 0.0;
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;  // 0 means "block forever"
    return tv;
}

void set_recv_timeout(int fd, double seconds) noexcept {
    const timeval tv = to_timeval(seconds);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

void apply_socket_timeouts(int fd, const http_limits& limits) noexcept {
    const timeval tv = to_timeval(limits.io_timeout_seconds);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

head_status read_request_head(int fd, const http_limits& limits, http_request& out) {
    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    std::string head;
    char buf[1024];
    std::size_t terminator = std::string::npos;
    for (;;) {
        terminator = head.find("\r\n\r\n");
        if (terminator != std::string::npos) break;
        if (head.size() >= limits.max_head_bytes) return head_status::too_large;
        // The total deadline is what defeats a drip-feed client: each tiny
        // recv would reset a per-recv timer, but not this clock.
        const double elapsed = std::chrono::duration<double>(clock::now() - start).count();
        const double remaining = limits.head_deadline_seconds - elapsed;
        if (remaining <= 0.0) return head_status::timeout;
        // Bound every recv ourselves rather than trusting the caller to have
        // applied the socket timeouts — a blocking fd would otherwise turn a
        // silent client into an unbounded wait.
        set_recv_timeout(fd, std::min(remaining, limits.io_timeout_seconds));
        const std::size_t room = limits.max_head_bytes - head.size();
        const ssize_t n = ::recv(fd, buf, std::min(room, sizeof(buf)), 0);
        if (n == 0) return head_status::closed;
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
                continue;  // per-recv timeout: loop re-checks the deadline
            }
            return head_status::closed;
        }
        head.append(buf, static_cast<std::size_t>(n));
    }
    const std::size_t line_end = head.find("\r\n");
    if (line_end == std::string::npos || !parse_request_line(head.substr(0, line_end), out)) {
        return head_status::malformed;
    }
    return head_status::ok;
}

bool send_all(int fd, const std::string& bytes) noexcept {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) return false;  // peer went away: responses are best-effort
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

std::pair<int, unsigned short> listen_on(unsigned short port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("serve: socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        ::close(fd);
        throw std::runtime_error("serve: cannot bind/listen on port " + std::to_string(port));
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        ::close(fd);
        throw std::runtime_error("serve: getsockname failed");
    }
    return {fd, ntohs(addr.sin_port)};
}

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point start) noexcept {
    return std::chrono::duration<double>(clock::now() - start).count();
}

/// Whether `host` may go to getaddrinfo and into the request head: 1..253
/// bytes, none of them a control byte, space, DEL or non-ASCII (any of those
/// could split or smuggle a header line), and, split on '.', no label empty
/// or over 63 bytes — DNS cannot carry such a name, so no lookup is made.
bool acceptable_host(const std::string& host) noexcept {
    if (host.empty() || host.size() > 253) return false;
    std::size_t label = 0;
    for (const char c : host) {
        const auto byte = static_cast<unsigned char>(c);
        if (byte <= 0x20 || byte >= 0x7f) return false;
        if (c == '.') {
            if (label == 0) return false;
            label = 0;
        } else if (++label > 63) {
            return false;
        }
    }
    return true;
}

int connect_to(const sockaddr* addr, socklen_t len, double timeout_seconds) noexcept {
    const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    http_limits limits;
    limits.io_timeout_seconds = timeout_seconds;
    apply_socket_timeouts(fd, limits);
    if (::connect(fd, addr, len) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

}  // namespace

std::optional<std::string> host_header(const std::string& host) {
    if (!acceptable_host(host)) return std::nullopt;
    const std::string address = host.substr(0, host.find('%'));
    in6_addr v6{};
    if (::inet_pton(AF_INET6, address.c_str(), &v6) == 1) return "[" + address + "]";
    return host;
}

int connect_client(const std::string& host, unsigned short port, double timeout_seconds) noexcept {
    const auto start = clock::now();
    if (!acceptable_host(host)) return -1;
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV;
    char service[8];
    std::snprintf(service, sizeof(service), "%u", static_cast<unsigned>(port));
    addrinfo* found = nullptr;
    if (::getaddrinfo(host.c_str(), service, &hints, &found) != 0) return -1;
    int fd = -1;
    for (const addrinfo* ai = found; ai != nullptr && fd < 0; ai = ai->ai_next) {
        const double left = timeout_seconds - seconds_since(start);
        if (left <= 0.0) break;
        fd = connect_to(ai->ai_addr, ai->ai_addrlen, left);
    }
    ::freeaddrinfo(found);
    return fd;
}

int connect_client(unsigned short port, double timeout_seconds) noexcept {
    return connect_client("127.0.0.1", port, timeout_seconds);
}

namespace {

/// Strict full-field status parse: exactly three digits followed by a space
/// (or CR for a phrase-less line). Returns 0 for anything else — a garbage
/// status line must read as "no status", never as a fabricated code the way
/// atoi's silent prefix parse did.
int parse_status_field(const std::string& response) noexcept {
    if (response.size() < 12) return 0;
    int status = 0;
    for (std::size_t i = 9; i < 12; ++i) {
        const char c = response[i];
        if (c < '0' || c > '9') return 0;
        status = status * 10 + (c - '0');
    }
    const char delim = response[12];
    if (delim != ' ' && delim != '\r') return 0;
    return status >= 100 && status <= 599 ? status : 0;
}

}  // namespace

std::optional<std::string> http_get(const std::string& host, unsigned short port,
                                    const std::string& path, double timeout_seconds,
                                    int* status_out, std::size_t max_response_bytes) {
    if (status_out != nullptr) *status_out = 0;
    const auto start = clock::now();
    const int fd = connect_client(host, port, timeout_seconds);
    if (fd < 0) return std::nullopt;
    const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + *host_header(host) +
                                "\r\nConnection: close\r\n\r\n";
    if (!send_all(fd, request)) {
        ::close(fd);
        return std::nullopt;
    }
    std::string response;
    char buf[4096];
    bool complete = false;
    for (;;) {
        // Same total-deadline rule as read_request_head, mirrored client
        // side: each drip of bytes resets a per-recv timer but not this
        // clock, so a slow-loris *server* cannot pin the caller.
        const double remaining = timeout_seconds - seconds_since(start);
        if (remaining <= 0.0) break;  // deadline: treat as torn
        set_recv_timeout(fd, remaining);
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n == 0) {
            complete = true;  // orderly close: the response is whole
            break;
        }
        if (n < 0) {
            if (errno == EINTR) continue;
            break;  // timeout or error: treat as torn
        }
        if (response.size() + static_cast<std::size_t>(n) > max_response_bytes) {
            break;  // oversized response: bounded buffering, like the server
        }
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    if (!complete || response.compare(0, 9, "HTTP/1.1 ") != 0) {
        return std::nullopt;
    }
    const int status = parse_status_field(response);
    if (status == 0) return std::nullopt;
    if (status_out != nullptr) *status_out = status;
    const std::size_t body = response.find("\r\n\r\n");
    if (body == std::string::npos) return std::nullopt;
    return response.substr(body + 4);
}

std::optional<std::string> http_get(unsigned short port, const std::string& path,
                                    double timeout_seconds, int* status_out,
                                    std::size_t max_response_bytes) {
    return http_get("127.0.0.1", port, path, timeout_seconds, status_out, max_response_bytes);
}

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS

}  // namespace levy::serve
