#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

// Case-insensitive "name:" match at the start of a header line.
bool HeaderIs(std::string_view line, std::string_view name) {
  if (line.size() <= name.size() || line[name.size()] != ':') return false;
  for (size_t i = 0; i < name.size(); ++i) {
    char c = line[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != name[i]) return false;
  }
  return true;
}

}  // namespace

bool Client::Connect(uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void Client::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  in_.clear();
}

int Client::Request(
    std::string_view method, std::string_view target,
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view payload, std::string* body) {
  if (fd_ < 0) return 0;
  std::string req;
  req.reserve(128 + payload.size());
  req.append(method).append(" ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  for (const auto& [k, v] : headers) req.append(k).append(": ").append(v).append("\r\n");
  req.append("Content-Length: ")
      .append(std::to_string(payload.size()))
      .append("\r\n\r\n")
      .append(payload);
  for (size_t sent = 0; sent < req.size();) {
    ssize_t n = send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return 0;
    }
    sent += static_cast<size_t>(n);
  }

  constexpr size_t kChunk = 64 * 1024;
  auto fill = [&]() {
    size_t old = in_.size();
    in_.resize(old + kChunk);
    for (;;) {
      ssize_t n = read(fd_, in_.data() + old, kChunk);
      if (n < 0 && errno == EINTR) continue;
      in_.resize(old + static_cast<size_t>(n > 0 ? n : 0));
      return n > 0;
    }
  };
  size_t head_end;
  while ((head_end = in_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) {
      Close();
      return 0;
    }
  }
  std::string_view head(in_.data(), head_end);
  // "HTTP/1.1 200 OK"
  size_t sp = head.find(' ');
  int status = sp == std::string_view::npos
                   ? 0
                   : std::atoi(std::string(head.substr(sp + 1, 3)).c_str());
  size_t length = 0;
  bool closes = false;
  for (size_t pos = head.find("\r\n"); pos != std::string_view::npos;) {
    size_t start = pos + 2;
    size_t eol = head.find("\r\n", start);
    std::string_view line = head.substr(
        start, eol == std::string_view::npos ? head.size() - start
                                             : eol - start);
    if (HeaderIs(line, "content-length")) {
      length = std::strtoull(std::string(line.substr(15)).c_str(), nullptr, 10);
    } else if (HeaderIs(line, "connection") &&
               line.find("close") != std::string_view::npos) {
      closes = true;
    }
    pos = eol;
  }
  const size_t body_start = head_end + 4;
  while (in_.size() < body_start + length) {
    if (!fill()) {
      Close();
      return 0;
    }
  }
  body->assign(in_, body_start, length);
  in_.erase(0, body_start + length);
  if (closes) Close();
  return status;
}

}  // namespace perfbench
