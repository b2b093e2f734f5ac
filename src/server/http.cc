#include "server/http.h"

#include <cstdio>
#include <cstdlib>

namespace rox::server {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char ca = a[i], cb = b[i];
    if (ca >= 'A' && ca <= 'Z') ca = static_cast<char>(ca - 'A' + 'a');
    if (cb >= 'A' && cb <= 'Z') cb = static_cast<char>(cb - 'A' + 'a');
    if (ca != cb) return false;
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

// RFC 9110 token characters — what a header field name may contain.
bool IsTokenChar(char c) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
      (c >= '0' && c <= '9')) {
    return true;
  }
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'':
    case '*': case '+': case '-': case '.': case '^': case '_':
    case '`': case '|': case '~':
      return true;
    default:
      return false;
  }
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

bool HttpRequest::WantsClose() const {
  const std::string* conn = FindHeader("Connection");
  if (conn != nullptr && EqualsIgnoreCase(Trim(*conn), "close")) return true;
  if (version == "HTTP/1.0") {
    return conn == nullptr || !EqualsIgnoreCase(Trim(*conn), "keep-alive");
  }
  return false;
}

void HttpParser::Fail(int status, std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_message_ = std::move(message);
  buffer_.clear();
}

void HttpParser::Feed(const char* data, size_t n) {
  if (state_ == State::kError) return;
  buffer_.append(data, n);
  if (state_ == State::kHeaders) {
    // Cap applies to the not-yet-parsed header section only; body
    // bytes that arrived with the headers are not its problem.
    ParseHeaders();
  }
  if (state_ == State::kBody) MaybeFinishBody();
}

void HttpParser::ParseHeaders() {
  size_t end = buffer_.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (buffer_.size() > limits_.max_header_bytes) {
      Fail(431, "request headers exceed limit");
    }
    return;
  }
  if (end + 4 > limits_.max_header_bytes) {
    Fail(431, "request headers exceed limit");
    return;
  }
  std::string_view head(buffer_.data(), end);

  // Request line: METHOD SP TARGET SP VERSION.
  size_t line_end = head.find("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1 || sp2 + 1 >= line.size()) {
    Fail(400, "malformed request line");
    return;
  }
  request_.method = std::string(line.substr(0, sp1));
  request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request_.version = std::string(line.substr(sp2 + 1));
  for (char c : request_.method) {
    if (!IsTokenChar(c)) {
      Fail(400, "malformed method");
      return;
    }
  }
  if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
    Fail(400, "unsupported HTTP version");
    return;
  }

  // Header fields.
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    std::string_view field = eol == std::string_view::npos
                                 ? head.substr(pos)
                                 : head.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol + 2;
    if (field.empty()) continue;
    if (field.front() == ' ' || field.front() == '\t') {
      Fail(400, "obsolete header line folding");
      return;
    }
    size_t colon = field.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      Fail(400, "malformed header field");
      return;
    }
    std::string_view name = field.substr(0, colon);
    for (char c : name) {
      if (!IsTokenChar(c)) {
        Fail(400, "malformed header name");
        return;
      }
    }
    request_.headers.emplace_back(std::string(name),
                                  std::string(Trim(field.substr(colon + 1))));
  }

  buffer_.erase(0, end + 4);

  // Body framing: Content-Length only. Chunked (or any other
  // Transfer-Encoding) is outside this server's scope — tell the peer
  // rather than misframe the stream.
  if (request_.FindHeader("Transfer-Encoding") != nullptr) {
    Fail(501, "transfer encodings not implemented");
    return;
  }
  // Content-Length is digits only (no sign, space or list), and every
  // copy of it must agree: the body boundary is where the next
  // pipelined request starts, so any doubt about it is a 400.
  body_expected_ = 0;
  const std::string* length = nullptr;
  for (const auto& [name, value] : request_.headers) {
    if (!EqualsIgnoreCase(name, "Content-Length")) continue;
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      Fail(400, "malformed Content-Length");
      return;
    }
    if (length != nullptr && *length != value) {
      Fail(400, "conflicting Content-Length headers");
      return;
    }
    length = &value;
  }
  if (length != nullptr) {
    // 19 digits always fit in 64 bits; longer values are refused as
    // too large.
    const uint64_t v = length->size() > 19
                           ? UINT64_MAX
                           : std::strtoull(length->c_str(), nullptr, 10);
    if (v > limits_.max_body_bytes) {
      Fail(413, "request body exceeds limit");
      return;
    }
    body_expected_ = static_cast<size_t>(v);
  }
  state_ = State::kBody;
  MaybeFinishBody();
}

void HttpParser::MaybeFinishBody() {
  if (buffer_.size() < body_expected_) return;
  request_.body = buffer_.substr(0, body_expected_);
  buffer_.erase(0, body_expected_);
  state_ = State::kComplete;
}

HttpRequest HttpParser::TakeRequest() {
  HttpRequest out = std::move(request_);
  request_ = HttpRequest();
  body_expected_ = 0;
  state_ = State::kHeaders;
  // Pipelined bytes for the next request may already be buffered.
  if (!buffer_.empty()) {
    ParseHeaders();
    if (state_ == State::kBody) MaybeFinishBody();
  }
  return out;
}

std::string_view HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string BuildHttpResponseHead(int status, std::string_view content_type,
                                  size_t content_length, bool keep_alive) {
  char head[256];
  int n = std::snprintf(
      head, sizeof(head),
      "HTTP/1.1 %d %.*s\r\n"
      "Content-Type: %.*s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: %s\r\n"
      "\r\n",
      status, static_cast<int>(HttpReasonPhrase(status).size()),
      HttpReasonPhrase(status).data(), static_cast<int>(content_type.size()),
      content_type.data(), content_length,
      keep_alive ? "keep-alive" : "close");
  return std::string(head, static_cast<size_t>(n));
}

}  // namespace rox::server
