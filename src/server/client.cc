#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/str_util.h"

namespace rox::server {

Status HttpClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::Ok();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host: " + host);
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s =
        Status::Internal(std::string("connect: ") + std::strerror(errno));
    Close();
    return s;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  buffer_.clear();
  return Status::Ok();
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Result<HttpResponse> HttpClient::Request(
    std::string_view method, std::string_view target,
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view body) {
  if (fd_ < 0) return Status::Internal("not connected");

  std::string req;
  req.reserve(256 + body.size());
  req.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  req.append("Host: roxd\r\n");
  for (const auto& [k, v] : headers) {
    req.append(k).append(": ").append(v).append("\r\n");
  }
  char cl[64];
  std::snprintf(cl, sizeof(cl), "Content-Length: %zu\r\n\r\n", body.size());
  req.append(cl);
  req.append(body);

  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t n =
        send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      Close();
      return Status::Internal(std::string("send: ") +
                              std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }

  // Read until the header section, then until Content-Length is
  // satisfied.
  HttpResponse resp;
  size_t header_end = std::string::npos;
  for (;;) {
    header_end = buffer_.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    char buf[4096];
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return Status::Internal("peer closed before response headers");
    }
    buffer_.append(buf, static_cast<size_t>(n));
  }

  std::string head = buffer_.substr(0, header_end);
  buffer_.erase(0, header_end + 4);
  size_t line_end = head.find("\r\n");
  std::string status_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  // "HTTP/1.1 200 OK"
  size_t sp = status_line.find(' ');
  if (sp == std::string::npos) {
    Close();
    return Status::Internal("malformed status line: " + status_line);
  }
  resp.status = std::atoi(status_line.c_str() + sp + 1);

  size_t content_length = 0;
  bool server_closes = false;
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    std::string field = eol == std::string::npos
                            ? head.substr(pos)
                            : head.substr(pos, eol - pos);
    pos = eol == std::string::npos ? head.size() : eol + 2;
    size_t colon = field.find(':');
    if (colon == std::string::npos) continue;
    std::string name = field.substr(0, colon);
    std::string value = field.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.erase(value.begin());
    }
    for (char& c : name) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    if (name == "content-length") {
      uint64_t n = 0;
      if (!ParseDecimalU64(value, &n)) {
        Close();
        return Status::Internal("malformed Content-Length: " + value);
      }
      content_length = n;
    } else if (name == "connection" && value == "close") {
      server_closes = true;
    }
    resp.headers.emplace_back(std::move(name), std::move(value));
  }

  while (buffer_.size() < content_length) {
    char buf[4096];
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return Status::Internal("peer closed mid-body");
    }
    buffer_.append(buf, static_cast<size_t>(n));
  }
  resp.body = buffer_.substr(0, content_length);
  buffer_.erase(0, content_length);

  if (server_closes) Close();
  return resp;
}

}  // namespace rox::server
