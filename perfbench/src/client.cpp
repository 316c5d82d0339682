#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <ctime>

#include "perfbench.h"

namespace perfbench {

namespace {

struct connection {
    int fd = -1;
    std::size_t index = 0;
    std::string request;
    std::size_t sent = 0;
    std::string response;
    bool connected = false;
};

/// Status code and body of a complete "Connection: close" response.
void parse_response(const std::string& raw, request_outcome& out) {
    const auto head_end = raw.find("\r\n\r\n");
    if (raw.rfind("HTTP/1.1 ", 0) != 0 || head_end == std::string::npos || raw.size() < 12) return;
    const int status = std::atoi(raw.substr(9, 3).c_str());
    if (status < 100 || status > 599) return;
    out.status = status;
    out.body = raw.substr(head_end + 4);
}

int open_connection(unsigned short port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 &&
        errno != EINPROGRESS) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Advance one connection on its poll events; true once it is finished
/// (answered or failed — `out.status` tells which).
bool advance(connection& c, short revents, request_outcome& out) {
    if (!c.connected) {
        if ((revents & (POLLOUT | POLLERR | POLLHUP)) == 0) return false;
        int err = 0;
        socklen_t len = sizeof err;
        if (::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) return true;
        c.connected = true;
    }
    if (c.sent < c.request.size()) {
        if ((revents & (POLLOUT | POLLERR | POLLHUP)) == 0) return false;
        const ssize_t n = ::send(c.fd, c.request.data() + c.sent, c.request.size() - c.sent,
                                 MSG_NOSIGNAL);
        if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK;
        c.sent += static_cast<std::size_t>(n);
        return false;
    }
    if ((revents & (POLLIN | POLLERR | POLLHUP)) == 0) return false;
    char buf[16384];
    while (true) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
            c.response.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {  // server closed: the response is complete
            parse_response(c.response, out);
            return true;
        }
        return errno != EAGAIN && errno != EWOULDBLOCK;  // reset = transport error
    }
}

}  // namespace

std::vector<request_outcome> run_open_loop(unsigned short port,
                                           const std::vector<std::string>& paths, double rate,
                                           double timeout_s) {
    std::vector<request_outcome> out(paths.size());
    std::vector<connection> live;
    std::vector<pollfd> fds;
    const double t0 = now_s();
    const auto due = [rate](std::size_t i) { return static_cast<double>(i) / rate; };
    std::size_t next = 0;
    while (next < paths.size() || !live.empty()) {
        double now = now_s() - t0;
        for (; next < paths.size() && due(next) <= now; ++next) {
            out[next].send_s = now;
            connection c;
            c.fd = open_connection(port);
            c.index = next;
            if (c.fd < 0) {
                out[next].done_s = now;
                continue;
            }
            c.request = "GET " + paths[next] + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
            live.push_back(std::move(c));
        }

        fds.resize(live.size());
        for (std::size_t i = 0; i < live.size(); ++i) {
            const bool writing = !live[i].connected || live[i].sent < live[i].request.size();
            fds[i] = pollfd{live[i].fd, static_cast<short>(writing ? POLLOUT : POLLIN), 0};
        }
        // Busy-poll: a sleeping generator wakes late by up to milliseconds
        // on a virtual machine, which would count as server latency.
        timespec ts{};
        const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        now = now_s() - t0;
        for (std::size_t i = live.size(); i-- > 0;) {
            connection& c = live[i];
            request_outcome& r = out[c.index];
            const short revents = rc > 0 ? fds[i].revents : 0;
            bool finished = revents != 0 && advance(c, revents, r);
            if (!finished && now - due(c.index) > timeout_s) finished = true;  // abandoned
            if (finished) {
                r.done_s = now;
                ::close(c.fd);
                live[i] = std::move(live.back());
                live.pop_back();
            }
        }
    }
    return out;
}

}  // namespace perfbench
