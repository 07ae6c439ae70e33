#include "tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace perfbench {

TcpLineClient::TcpLineClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{30, 0};  // a hung server fails the run instead of stalling it
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

TcpLineClient::~TcpLineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool TcpLineClient::write_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t k = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(k));
  }
  return true;
}

bool TcpLineClient::read_line(std::string& line) {
  for (;;) {
    const std::size_t nl = rbuf_.find('\n', roff_);
    if (nl != std::string::npos) {
      line.assign(rbuf_, roff_, nl - roff_);
      roff_ = nl + 1;
      if (roff_ == rbuf_.size()) {
        rbuf_.clear();
        roff_ = 0;
      }
      return true;
    }
    char buf[65536];
    const ssize_t k = ::recv(fd_, buf, sizeof buf, 0);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    rbuf_.append(buf, static_cast<std::size_t>(k));
  }
}

bool TcpLineClient::call(std::string_view request, std::string& response) {
  wbuf_.assign(request);
  wbuf_ += '\n';
  return write_all(wbuf_) && read_line(response);
}

bool TcpLineClient::call_pipelined(
    const std::vector<std::string_view>& requests,
    std::vector<std::string>& responses) {
  wbuf_.clear();
  for (const std::string_view r : requests) {
    wbuf_ += r;
    wbuf_ += '\n';
  }
  if (!write_all(wbuf_)) return false;
  responses.resize(requests.size());
  for (std::string& r : responses) {
    if (!read_line(r)) return false;
  }
  return true;
}

}  // namespace perfbench
