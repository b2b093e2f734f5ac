// A minimal, dependency-free HTTP/1.1 message layer (DESIGN.md §15).
//
// HttpParser is an *incremental* request parser: the server feeds it
// whatever bytes arrive on a socket, and it either asks for more,
// produces a complete HttpRequest, or fails with the HTTP status code
// the peer should be told (400 malformed, 413 body too large, 431
// headers too large, 501 unimplemented transfer-coding). Parsing never
// throws and never reads beyond the bytes it was given, so a
// misbehaving client can at worst earn itself an error response.
//
// Scope is deliberately small — exactly what roxd needs:
//   * request line + headers + optional Content-Length body
//   * keep-alive (HTTP/1.1 default; "Connection: close" honored)
//   * no chunked encoding, no continuation lines, no trailers
//
// BuildHttpResponseHead renders the head of the matching response; the
// body is sent after it as a separate buffer.

#ifndef ROX_SERVER_HTTP_H_
#define ROX_SERVER_HTTP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rox::server {

// One parsed request. Header names are stored as received; lookup is
// case-insensitive per RFC 9110.
struct HttpRequest {
  std::string method;   // "GET", "POST", ... (uppercase by convention)
  std::string target;   // "/query", "/metrics?x=1", ...
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  // Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;
  // True when the request asks for the connection to close after the
  // response ("Connection: close", or an HTTP/1.0 peer that did not
  // opt into keep-alive).
  bool WantsClose() const;
};

// Size caps the parser enforces (a socket peer controls these inputs).
struct HttpParserLimits {
  size_t max_header_bytes = 16 * 1024;       // request line + all headers
  size_t max_body_bytes = 4 * 1024 * 1024;   // declared Content-Length
};

// Incremental parser for a sequence of requests on one connection.
//
//   parser.Feed(data, n);
//   while (parser.HasRequest()) { HttpRequest r = parser.TakeRequest(); }
//   if (parser.failed()) { answer parser.error_status() and close }
class HttpParser {
 public:
  HttpParser() = default;
  explicit HttpParser(HttpParserLimits limits) : limits_(limits) {}

  // Consumes `n` bytes from the peer. Safe to call with n == 0. After
  // a parse error the parser latches failed() and ignores further
  // input (the server answers the error and closes).
  void Feed(const char* data, size_t n);

  // A complete request is ready to take.
  bool HasRequest() const { return state_ == State::kComplete; }
  // Returns the parsed request and resets for the next one on the
  // same connection. Precondition: HasRequest().
  HttpRequest TakeRequest();

  bool failed() const { return state_ == State::kError; }
  // HTTP status code describing the failure (400/413/431/501).
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

 private:
  enum class State { kHeaders, kBody, kComplete, kError };

  void Fail(int status, std::string message);
  // Attempts to parse buffered header bytes into request_.
  void ParseHeaders();
  void MaybeFinishBody();

  HttpParserLimits limits_;
  State state_ = State::kHeaders;
  std::string buffer_;         // unconsumed input
  HttpRequest request_;        // request being assembled
  size_t body_expected_ = 0;   // declared Content-Length
  int error_status_ = 0;
  std::string error_message_;
};

// Standard reason phrase for the status codes roxd emits ("OK",
// "Too Many Requests", ...); "Unknown" otherwise.
std::string_view HttpReasonPhrase(int status);

// Renders a response head for a body of `content_length` bytes: status
// line, Content-Type, Content-Length, Connection (keep-alive/close),
// blank line.
std::string BuildHttpResponseHead(int status, std::string_view content_type,
                                  size_t content_length, bool keep_alive);

}  // namespace rox::server

#endif  // ROX_SERVER_HTTP_H_
