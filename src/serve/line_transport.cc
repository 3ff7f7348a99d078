#include "serve/line_transport.h"

#include <cerrno>
#include <cstring>
#include <iostream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace stwa {
namespace serve {
namespace {

/// Sends all of `out`; false when the peer is gone or the send failed.
bool SendAll(int fd, const std::string& out) {
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t w =
        send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

void ServeLines(std::istream& in, std::ostream& out,
                const LineHandler& handler) {
  std::string line;
  bool quit = false;
  while (!quit && std::getline(in, line)) {
    auto resp = handler(line, &quit);
    if (resp) out << *resp << "\n" << std::flush;
  }
}

void ServeConnection(int fd, const LineHandler& handler) {
  std::string buffer;
  char chunk[4096];
  bool quit = false;
  while (!quit) {
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while (!quit && (pos = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      auto resp = handler(line, &quit);
      if (resp && !SendAll(fd, *resp + "\n")) quit = true;
    }
  }
  close(fd);
}

int ServeTcp(int port, const LineHandlerFactory& make_handler) {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "socket() failed: " << std::strerror(errno) << "\n";
    return 1;
  }
  const int one = 1;
  setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listener, 16) < 0) {
    std::cerr << "bind/listen on port " << port
              << " failed: " << std::strerror(errno) << "\n";
    close(listener);
    return 1;
  }
  std::cerr << "listening on 127.0.0.1:" << port << "\n";
  std::vector<std::thread> connections;
  for (;;) {
    const int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    connections.emplace_back(
        [fd, handler = make_handler()] { ServeConnection(fd, handler); });
  }
  for (std::thread& t : connections) t.join();
  close(listener);
  return 0;
}

}  // namespace serve
}  // namespace stwa
