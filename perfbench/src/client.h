// The load generator's HTTP/1.1 client: one blocking keep-alive
// connection, Content-Length framing only. Kept inside the benchmark
// (rather than using the server library's client) so the load
// generator stays the same while the program under test changes.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

  // Connects to 127.0.0.1:port; false on failure.
  bool Connect(uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  // Sends one request and reads the whole response into *body (reused
  // across calls). Returns the HTTP status, or 0 when the connection
  // failed (it is closed then).
  int Request(std::string_view method, std::string_view target,
              const std::vector<std::pair<std::string, std::string>>& headers,
              std::string_view payload, std::string* body);

 private:
  int fd_ = -1;
  std::string in_;  // received bytes not yet consumed
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
