#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// What happened to one open-loop request. Times are seconds after the
/// loop started.
struct request_outcome {
    int status = 0;      ///< HTTP status; 0 = transport error or timeout
    std::string body;
    double send_s = 0.0; ///< when the connection was opened
    double done_s = 0.0; ///< when the response was complete (or abandoned)
};

/// Open-loop load generator: GET `paths[i]` against 127.0.0.1:`port` when
/// it is due, at i / `rate` seconds after the call, each on a fresh
/// connection, whether or not earlier requests have been answered. One
/// thread drives every connection (non-blocking sockets, busy-polled with
/// ppoll), so the generator adds a single thread — one busy core — to the
/// machine. A request unanswered `timeout_s` after it was due is abandoned
/// with status 0.
[[nodiscard]] std::vector<request_outcome> run_open_loop(unsigned short port,
                                                         const std::vector<std::string>& paths,
                                                         double rate, double timeout_s);

}  // namespace perfbench
