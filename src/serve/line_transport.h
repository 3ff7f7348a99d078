// Line transports of the serving CLI (stwa_fleet): stdin/stdout and
// loopback TCP, both driving a per-connection line handler. The
// transports know nothing about the protocol — a handler (in stwa_fleet,
// a fleet::FleetLineSession) maps each request line to an optional
// response line.

#ifndef STWA_SERVE_LINE_TRANSPORT_H_
#define STWA_SERVE_LINE_TRANSPORT_H_

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

namespace stwa {
namespace serve {

/// Handles one request line. Returns the response line (without the
/// newline), or nullopt for none. Sets *quit to end the connection.
using LineHandler =
    std::function<std::optional<std::string>(const std::string&, bool*)>;

/// Creates the handler (and its session state) for one new connection.
using LineHandlerFactory = std::function<LineHandler()>;

/// Serves `in` line by line until EOF or quit, flushing each response.
void ServeLines(std::istream& in, std::ostream& out,
                const LineHandler& handler);

/// Serves one connected socket until the peer closes, an I/O error, or
/// quit, then closes `fd`. Responses are sent with MSG_NOSIGNAL, so a
/// peer that hangs up before reading ends this connection (EPIPE) instead
/// of raising SIGPIPE in the whole process.
void ServeConnection(int fd, const LineHandler& handler);

/// Listens on 127.0.0.1:`port`, serving each accepted client on its own
/// thread with a fresh handler. Returns nonzero when the listener cannot
/// be set up (the reason goes to stderr).
int ServeTcp(int port, const LineHandlerFactory& make_handler);

}  // namespace serve
}  // namespace stwa

#endif  // STWA_SERVE_LINE_TRANSPORT_H_
