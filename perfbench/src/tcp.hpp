#pragma once
/// \file tcp.hpp
/// A minimal blocking text-protocol client, written against the wire format
/// (one request line in, one response line out) rather than net::Client, so
/// the benchmark measures the server from outside.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class TcpLineClient {
 public:
  explicit TcpLineClient(std::uint16_t port);
  ~TcpLineClient();
  TcpLineClient(const TcpLineClient&) = delete;
  TcpLineClient& operator=(const TcpLineClient&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  /// Sends one request and waits for its response (depth 1).
  bool call(std::string_view request, std::string& response);
  /// Sends `requests` back to back (one write) and reads one response per
  /// request into `responses`, in order.
  bool call_pipelined(const std::vector<std::string_view>& requests,
                      std::vector<std::string>& responses);

 private:
  bool write_all(std::string_view bytes);
  bool read_line(std::string& line);

  int fd_ = -1;
  std::string wbuf_;
  std::string rbuf_;
  std::size_t roff_ = 0;
};

}  // namespace perfbench
