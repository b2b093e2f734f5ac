#include "xml/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "common/escape.h"
#include "common/str_util.h"

namespace rox {

namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

bool IsAllWhitespace(std::string_view s) {
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// Streaming cursor over the input with line tracking for error messages.
class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}

  bool AtEnd() const { return pos_ >= s_.size(); }
  char Peek() const { return s_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < s_.size() ? s_[pos_ + off] : '\0';
  }

  char Take() {
    char c = s_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }

  bool TryConsume(std::string_view token) {
    if (s_.substr(pos_, token.size()) != token) return false;
    for (size_t i = 0; i < token.size(); ++i) Take();
    return true;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      Take();
    }
  }

  // Consumes up to (not including) the first occurrence of `delim`;
  // returns false if `delim` never occurs.
  bool TakeUntil(std::string_view delim, std::string* out) {
    size_t found = s_.find(delim, pos_);
    if (found == std::string_view::npos) return false;
    out->assign(s_.substr(pos_, found - pos_));
    while (pos_ < found) Take();
    for (size_t i = 0; i < delim.size(); ++i) Take();
    return true;
  }

  int line() const { return line_; }

 private:
  std::string_view s_;
  size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  Parser(std::string_view xml, const XmlParseOptions& options,
         DocumentBuilder* builder)
      : cur_(xml), options_(options), builder_(builder) {}

  Status Run() {
    cur_.SkipWhitespace();
    // Prolog: XML declaration and misc.
    while (!cur_.AtEnd() && cur_.Peek() == '<' &&
           (cur_.PeekAt(1) == '?' || cur_.PeekAt(1) == '!')) {
      ROX_RETURN_IF_ERROR(ParseMarkupDecl());
      cur_.SkipWhitespace();
    }
    if (cur_.AtEnd() || cur_.Peek() != '<') {
      return Err("expected root element");
    }
    ROX_RETURN_IF_ERROR(ParseElement());
    cur_.SkipWhitespace();
    while (!cur_.AtEnd()) {
      if (cur_.Peek() == '<' &&
          (cur_.PeekAt(1) == '!' || cur_.PeekAt(1) == '?')) {
        ROX_RETURN_IF_ERROR(ParseMarkupDecl());
        cur_.SkipWhitespace();
      } else {
        return Err("trailing content after root element");
      }
    }
    return Status::Ok();
  }

 private:
  Status Err(std::string_view what) {
    return Status::ParseError(
        StrCat("line ", cur_.line(), ": ", std::string(what)));
  }

  // A robustness cap was exceeded: kResourceExhausted, not kParseError,
  // so callers can tell "malformed" from "well-formed but too big".
  Status CapErr(std::string_view what) {
    return Status::ResourceExhausted(
        StrCat("line ", cur_.line(), ": ", std::string(what)));
  }

  Status ParseName(std::string* out) {
    if (cur_.AtEnd() || !IsNameStartChar(cur_.Peek())) {
      return Err("expected name");
    }
    out->clear();
    while (!cur_.AtEnd() && IsNameChar(cur_.Peek())) out->push_back(cur_.Take());
    return Status::Ok();
  }

  // <?...?>, <!--...-->, <!DOCTYPE...>, <![CDATA[...]]> at top level.
  Status ParseMarkupDecl() {
    if (cur_.TryConsume("<?")) {
      std::string target;
      ROX_RETURN_IF_ERROR(ParseName(&target));
      std::string content;
      if (!cur_.TakeUntil("?>", &content)) return Err("unterminated PI");
      if (options_.keep_pis && target != "xml") {
        builder_->ProcessingInstruction(target, Trim(content));
      }
      return Status::Ok();
    }
    if (cur_.TryConsume("<!--")) {
      std::string content;
      if (!cur_.TakeUntil("-->", &content)) return Err("unterminated comment");
      if (options_.keep_comments) builder_->Comment(content);
      return Status::Ok();
    }
    if (cur_.TryConsume("<!DOCTYPE")) {
      // Consume until the matching '>' (internal subsets in brackets).
      int depth = 1;
      bool bracket = false;
      while (!cur_.AtEnd() && depth > 0) {
        char c = cur_.Take();
        if (c == '[') bracket = true;
        if (c == ']') bracket = false;
        if (c == '<' && !bracket) ++depth;
        if (c == '>' && !bracket) --depth;
      }
      if (depth != 0) return Err("unterminated DOCTYPE");
      return Status::Ok();
    }
    return Err("unsupported markup declaration");
  }

  // Elements are parsed iteratively with an explicit stack of open
  // element names: nesting depth is input-controlled, so a recursive
  // descent here can overflow the thread stack on adversarially deep
  // documents (sanitizer builds, with their larger frames, hit this at
  // a few thousand levels).
  Status ParseElement() {
    std::vector<std::string> open;
    // Pending character data of the innermost open element. A single
    // buffer suffices: it is always flushed before a tag boundary, so
    // text never spans nesting levels.
    std::string text;
    auto flush_text = [&]() {
      if (text.empty()) return;
      if (!options_.skip_whitespace_text || !IsAllWhitespace(text)) {
        builder_->Text(text);
      }
      text.clear();
    };

    // The document's level column is uint16 and a text child of an
    // element at depth d has level d + 2 (the document node is level
    // 0), so element nesting beyond this must be rejected — without
    // the check it would parse "successfully" with silently wrapped
    // levels, corrupting level-based child navigation.
    constexpr size_t kMaxElementDepth = 65533;

    // Parses one start tag with its attributes; pushes onto `open`
    // unless the element was self-closing.
    auto parse_start_tag = [&]() -> Status {
      if (!cur_.TryConsume("<")) return Err("expected '<'");
      if (open.size() >= kMaxElementDepth) {
        return Err("element nesting too deep");
      }
      size_t attr_count = 0;
      std::string name;
      ROX_RETURN_IF_ERROR(ParseName(&name));
      builder_->StartElement(name);
      for (;;) {
        cur_.SkipWhitespace();
        if (cur_.AtEnd()) return Err("unterminated start tag");
        if (cur_.TryConsume("/>")) {
          builder_->EndElement();
          return Status::Ok();
        }
        if (cur_.TryConsume(">")) break;
        if (options_.max_attributes_per_element > 0 &&
            attr_count >= options_.max_attributes_per_element) {
          return CapErr("too many attributes on one element "
                        "(max_attributes_per_element)");
        }
        ++attr_count;
        std::string aname;
        ROX_RETURN_IF_ERROR(ParseName(&aname));
        cur_.SkipWhitespace();
        if (!cur_.TryConsume("=")) return Err("expected '=' in attribute");
        cur_.SkipWhitespace();
        if (cur_.AtEnd()) return Err("unterminated attribute");
        char quote = cur_.Take();
        if (quote != '"' && quote != '\'') {
          return Err("expected quoted attribute value");
        }
        std::string raw;
        if (!cur_.TakeUntil(std::string_view(&quote, 1), &raw)) {
          return Err("unterminated attribute value");
        }
        std::string value;
        ROX_RETURN_IF_ERROR(Unescape(raw, &value));
        builder_->Attribute(aname, value);
      }
      open.push_back(std::move(name));
      return Status::Ok();
    };

    ROX_RETURN_IF_ERROR(parse_start_tag());
    while (!open.empty()) {
      if (cur_.AtEnd()) return Err("unterminated element content");
      if (cur_.Peek() == '<') {
        if (cur_.TryConsume("</")) {
          flush_text();
          std::string end_name;
          ROX_RETURN_IF_ERROR(ParseName(&end_name));
          cur_.SkipWhitespace();
          if (!cur_.TryConsume(">")) return Err("expected '>' in end tag");
          if (end_name != open.back()) {
            return Err(StrCat("mismatched end tag </", end_name,
                              ">, expected </", open.back(), ">"));
          }
          builder_->EndElement();
          open.pop_back();
          continue;
        }
        if (cur_.TryConsume("<![CDATA[")) {
          std::string cdata;
          if (!cur_.TakeUntil("]]>", &cdata)) return Err("unterminated CDATA");
          text += cdata;
          continue;
        }
        if (cur_.Peek() == '<' &&
            (cur_.PeekAt(1) == '!' || cur_.PeekAt(1) == '?')) {
          flush_text();
          ROX_RETURN_IF_ERROR(ParseMarkupDecl());
          continue;
        }
        flush_text();
        ROX_RETURN_IF_ERROR(parse_start_tag());
        continue;
      }
      // Character data (with entity expansion).
      std::string raw;
      raw.push_back(cur_.Take());
      while (!cur_.AtEnd() && cur_.Peek() != '<') raw.push_back(cur_.Take());
      std::string unescaped;
      ROX_RETURN_IF_ERROR(Unescape(raw, &unescaped));
      text += unescaped;
    }
    return Status::Ok();
  }

  Status Unescape(std::string_view raw, std::string* out) {
    out->clear();
    out->reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out->push_back(raw[i]);
        continue;
      }
      const size_t before = out->size();
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) return Err("unterminated entity");
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "amp") {
        out->push_back('&');
      } else if (ent == "lt") {
        out->push_back('<');
      } else if (ent == "gt") {
        out->push_back('>');
      } else if (ent == "quot") {
        out->push_back('"');
      } else if (ent == "apos") {
        out->push_back('\'');
      } else if (!ent.empty() && ent[0] == '#') {
        int base = 10;
        std::string digits(ent.substr(1));
        if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
          base = 16;
          digits.erase(0, 1);
        }
        char* end = nullptr;
        long code = std::strtol(digits.c_str(), &end, base);
        if (end != digits.c_str() + digits.size() || code <= 0) {
          return Err("bad character reference");
        }
        AppendUtf8(static_cast<uint32_t>(code), out);
      } else {
        return Err(StrCat("unknown entity &", std::string(ent), ";"));
      }
      // Meter expanded output, not reference count: the supported
      // entity set cannot recurse, so total produced bytes is the
      // resource an expansion flood actually consumes.
      expanded_bytes_ += out->size() - before;
      if (options_.max_entity_expansion_bytes > 0 &&
          expanded_bytes_ > options_.max_entity_expansion_bytes) {
        return CapErr("entity expansion output too large "
                      "(max_entity_expansion_bytes)");
      }
      i = semi;
    }
    return Status::Ok();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  static std::string Trim(std::string_view s) {
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return std::string(s.substr(b, e - b));
  }

  Cursor cur_;
  const XmlParseOptions& options_;
  DocumentBuilder* builder_;
  // Bytes produced by entity/char-ref expansion so far (whole document).
  size_t expanded_bytes_ = 0;
};

// One replacement table per byte class a serialization writes: markup
// (names, comment and PI bodies), text, and attribute values. XML output
// escapes only text and attribute values. JSON-string output starts
// every class from the JSON table; the XML entity replacements set over
// it contain no byte JSON escapes, so each entry equals XML-escaping
// then JSON-escaping that byte. Of the literal markup around names and
// values ("<", "</", "=", "/>", ...) only the attribute value quote is a
// byte an output escapes; it is escaped once, here.
struct SerializeTables {
  EscapeTable markup, text, attr;
  std::string quote;

  explicit SerializeTables(const EscapeTable& base) : markup(base) {
    text = base;
    text.Set('&', "&amp;");
    text.Set('<', "&lt;");
    text.Set('>', "&gt;");
    attr = text;
    attr.Set('"', "&quot;");
    AppendEscaped(&quote, "\"", markup);
  }
};

const SerializeTables& TablesFor(XmlOutput output) {
  static const SerializeTables xml{EscapeTable()};
  static const SerializeTables json{JsonEscapeTable()};
  return output == XmlOutput::kJsonString ? json : xml;
}

void SerializeNode(const Document& doc, Pre p, const SerializeTables& t,
                   std::string* out) {
  auto markup = [&](std::string_view s) { AppendEscaped(out, s, t.markup); };
  switch (doc.Kind(p)) {
    case NodeKind::kDoc: {
      Pre end = p + doc.Size(p);
      for (Pre q = p + 1; q <= end; q += doc.Size(q) + 1) {
        SerializeNode(doc, q, t, out);
      }
      break;
    }
    case NodeKind::kElem: {
      out->push_back('<');
      markup(doc.NameStr(p));
      // Attributes come first in the subtree.
      Pre end = p + doc.Size(p);
      Pre q = p + 1;
      for (; q <= end && doc.Kind(q) == NodeKind::kAttr; ++q) {
        out->push_back(' ');
        markup(doc.NameStr(q));
        out->push_back('=');
        out->append(t.quote);
        AppendEscaped(out, doc.ValueStr(q), t.attr);
        out->append(t.quote);
      }
      if (q > end) {
        out->append("/>");
        break;
      }
      out->push_back('>');
      while (q <= end) {
        SerializeNode(doc, q, t, out);
        q += doc.Size(q) + 1;
      }
      out->append("</");
      markup(doc.NameStr(p));
      out->push_back('>');
      break;
    }
    case NodeKind::kText:
      AppendEscaped(out, doc.ValueStr(p), t.text);
      break;
    case NodeKind::kAttr:
      // Emitted by the owning element.
      break;
    case NodeKind::kComment:
      out->append("<!--");
      markup(doc.ValueStr(p));
      out->append("-->");
      break;
    case NodeKind::kPi:
      out->append("<?");
      markup(doc.NameStr(p));
      out->push_back(' ');
      markup(doc.ValueStr(p));
      out->append("?>");
      break;
  }
}

}  // namespace

Result<std::unique_ptr<Document>> ParseXml(std::string_view xml,
                                           std::string doc_name,
                                           std::shared_ptr<StringPool> pool,
                                           const XmlParseOptions& options) {
  if (options.max_input_bytes > 0 && xml.size() > options.max_input_bytes) {
    return Status::ResourceExhausted(
        StrCat("document of ", xml.size(), " bytes exceeds max_input_bytes (",
               options.max_input_bytes, ")"));
  }
  DocumentBuilder builder(std::move(doc_name), std::move(pool));
  Parser parser(xml, options, &builder);
  ROX_RETURN_IF_ERROR(parser.Run());
  return std::move(builder).Finish();
}

void AppendSubtree(const Document& doc, Pre p, XmlOutput output,
                   std::string* out) {
  SerializeNode(doc, p, TablesFor(output), out);
}

std::string SerializeXml(const Document& doc) {
  return SerializeSubtree(doc, 0);
}

std::string SerializeSubtree(const Document& doc, Pre p) {
  std::string out;
  AppendSubtree(doc, p, XmlOutput::kXml, &out);
  return out;
}

}  // namespace rox
