// The unified QueryRequest/QueryResponse API (DESIGN.md §15):
// golden-file pinning of the stable response JSON (the wire format
// roxd serves and xq_shell --json prints), and differential tests
// proving the legacy Run/Submit/Explain/Profile entry points are
// exactly Execute(QueryRequest) shims.
//
// Regenerate the golden after an intentional format extension with:
//   ROX_UPDATE_GOLDEN=1 ./rox_tests --gtest_filter='QueryApi*'

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "index/corpus.h"
#include "xml/parser.h"

namespace rox {
namespace {

// A tiny hand-written corpus: deterministic content, deterministic
// row serializations, deterministic golden bytes.
Corpus SmallCorpus() {
  Corpus corpus;
  auto id = corpus.AddXml(
      "<library>"
      "<book><title>A \"quoted\" title</title><year>2001</year></book>"
      "<book><title>Plain</title><year>2003</year></book>"
      "<book><title>Third &amp; last</title><year>2005</year></book>"
      "</library>",
      "lib.xml");
  EXPECT_TRUE(id.ok());
  return corpus;
}

std::string BooksQuery() {
  return R"(for $t in doc("lib.xml")//title return $t)";
}

std::string GoldenPath() {
  std::string self = __FILE__;
  return self.substr(0, self.find_last_of('/')) +
         "/golden/query_response.json";
}

TEST(QueryApiTest, ResponseJsonMatchesGoldenFile) {
  engine::Engine eng(SmallCorpus(), {});
  engine::QueryRequest req;
  req.text = BooksQuery();
  req.client_tag = "golden";
  engine::QueryResponse resp = eng.Execute(req);
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();

  // Timings are nondeterministic; everything else in the wire format
  // must be byte-stable.
  engine::ResponseJsonOptions opts;
  opts.include_timings = false;
  std::string got = resp.ToJson(opts);

  const char* update = std::getenv("ROX_UPDATE_GOLDEN");
  if (update != nullptr && update[0] == '1') {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << got;
    GTEST_SKIP() << "golden file updated";
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good())
      << "missing " << GoldenPath()
      << " (run with ROX_UPDATE_GOLDEN=1 to create it)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(got, buf.str())
      << "QueryResponse::ToJson drifted from the golden wire format; "
         "if the change is an intentional *addition*, regenerate with "
         "ROX_UPDATE_GOLDEN=1";
}

TEST(QueryApiTest, JsonRowTruncationIsExplicit) {
  engine::Engine eng(SmallCorpus(), {});
  engine::QueryRequest req;
  req.text = BooksQuery();
  engine::QueryResponse resp = eng.Execute(req);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.result.items->size(), 3u);

  engine::ResponseJsonOptions opts;
  opts.max_rows = 2;
  std::string json = resp.ToJson(opts);
  EXPECT_NE(json.find("\"rows_truncated\": true"), std::string::npos);
  EXPECT_NE(json.find("\"row_count\": 3"), std::string::npos);
  // Untruncated serialization has no marker at all.
  EXPECT_EQ(resp.ToJson().find("rows_truncated"), std::string::npos);

  // SerializeResultRows is the same rows the JSON embeds.
  std::vector<std::string> rows =
      engine::SerializeResultRows(resp.result);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1], "<title>Plain</title>");
}

// Test-local oracles for the row escaping, one character at a time and
// sharing no code with the serializer: XML-escape a text or attribute
// value, and JSON-escape a string's contents.
std::string OracleXmlEscape(std::string_view s, bool attr) {
  std::string out;
  for (char c : s) {
    if (c == '&') {
      out += "&amp;";
    } else if (c == '<') {
      out += "&lt;";
    } else if (c == '>') {
      out += "&gt;";
    } else if (c == '"' && attr) {
      out += "&quot;";
    } else {
      out += c;
    }
  }
  return out;
}

std::string OracleJsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    const unsigned char b = static_cast<unsigned char>(c);
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (b < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", b);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

TEST(QueryApiTest, RowEscapingMatchesCharByCharOracle) {
  // Every byte class the two escapes treat specially, in a text node and
  // in an attribute value: quote, backslash, \n \r \t and the other
  // controls 0x01-0x1f (as character references), the XML specials, and
  // 2/3/4-byte UTF-8.
  std::string raw = "q\"b\\";
  std::string source = "q&quot;b\\";
  for (int b = 1; b < 0x20; ++b) {
    raw += static_cast<char>(b);
    source += "&#" + std::to_string(b) + ";";
  }
  raw += "&<>\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80 end";
  source += "&amp;&lt;&gt;\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80 end";

  const std::string xml =
      "<root><r a=\"" + source + "\">" + source + "<e/></r></root>";
  Corpus corpus;
  ASSERT_TRUE(corpus.AddXml(xml, "esc.xml").ok());
  engine::Engine eng(std::move(corpus), {});
  engine::QueryRequest req;
  req.text = R"(for $r in doc("esc.xml")//r return $r)";
  engine::QueryResponse resp = eng.Execute(req);
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  ASSERT_EQ(resp.result.items->size(), 1u);
  const Document& doc = resp.result.snapshot->doc(resp.result.result_doc);
  const Pre r = (*resp.result.items)[0];
  // The parser stored the bytes under test, not something tamer.
  ASSERT_EQ(doc.ValueStr(r + 1), raw);  // the attribute
  ASSERT_EQ(doc.ValueStr(r + 2), raw);  // the text node

  const std::string want_xml = "<r a=\"" + OracleXmlEscape(raw, true) +
                               "\">" + OracleXmlEscape(raw, false) +
                               "<e/></r>";
  const std::string want_json = OracleJsonEscape(want_xml);

  EXPECT_EQ(SerializeSubtree(doc, r), want_xml);
  std::string appended = "x";
  AppendSubtree(doc, r, XmlOutput::kJsonString, &appended);
  EXPECT_EQ(appended, "x" + want_json);
  const std::string want_rows = "\"rows\": [\n    \"" + want_json + "\"\n  ]";
  EXPECT_NE(resp.ToJson().find(want_rows), std::string::npos);
}

TEST(QueryApiTest, ParseQueryModeRoundtrips) {
  engine::QueryMode mode;
  EXPECT_TRUE(engine::ParseQueryMode("execute", &mode));
  EXPECT_EQ(mode, engine::QueryMode::kExecute);
  EXPECT_TRUE(engine::ParseQueryMode("EXPLAIN", &mode));
  EXPECT_EQ(mode, engine::QueryMode::kExplain);
  EXPECT_TRUE(engine::ParseQueryMode("Profile", &mode));
  EXPECT_EQ(mode, engine::QueryMode::kProfile);
  EXPECT_FALSE(engine::ParseQueryMode("banana", &mode));
  EXPECT_STREQ(engine::QueryModeName(engine::QueryMode::kProfile),
               "profile");
}

// --- differential: legacy entry points vs Execute -------------------------

TEST(QueryApiDifferentialTest, RunEqualsExecute) {
  engine::EngineOptions opts;
  opts.enable_cache = false;  // no replay: both paths really execute
  engine::Engine eng(SmallCorpus(), opts);

  engine::QueryResult legacy = eng.Run(BooksQuery());
  engine::QueryRequest req;
  req.text = BooksQuery();
  engine::QueryResponse unified = eng.Execute(req);

  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(unified.ok());
  EXPECT_EQ(legacy.epoch, unified.result.epoch);
  EXPECT_EQ(engine::SerializeResultRows(legacy),
            engine::SerializeResultRows(unified.result));
}

TEST(QueryApiDifferentialTest, RunWithLimitsEqualsExecuteWithLimits) {
  engine::Engine eng(SmallCorpus(), {});
  QueryLimits limits;
  limits.max_result_rows = 1;  // trips on the 3-row result

  engine::QueryResult legacy = eng.Run(BooksQuery(), limits);
  engine::QueryRequest req;
  req.text = BooksQuery();
  req.limits = limits;
  engine::QueryResponse unified = eng.Execute(req);

  ASSERT_FALSE(legacy.ok());
  ASSERT_FALSE(unified.ok());
  EXPECT_EQ(legacy.status.code(), unified.status.code());
  EXPECT_EQ(legacy.status.code(), StatusCode::kResourceExhausted);
}

TEST(QueryApiDifferentialTest, SubmitEqualsExecuteAsync) {
  engine::Engine eng(SmallCorpus(), {});
  engine::QueryResult legacy = eng.Submit(BooksQuery()).get();
  engine::QueryRequest req;
  req.text = BooksQuery();
  engine::QueryResponse unified = eng.ExecuteAsync(std::move(req)).get();
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(unified.ok());
  EXPECT_EQ(engine::SerializeResultRows(legacy),
            engine::SerializeResultRows(unified.result));
}

TEST(QueryApiDifferentialTest, ExplainEqualsExecuteExplainMode) {
  engine::Engine eng(SmallCorpus(), {});
  auto legacy = eng.Explain(BooksQuery());
  engine::QueryRequest req;
  req.text = BooksQuery();
  req.mode = engine::QueryMode::kExplain;
  engine::QueryResponse unified = eng.Execute(req);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(unified.ok());
  EXPECT_EQ(*legacy, unified.explain_text);
  EXPECT_FALSE(unified.explain_text.empty());
  // Explain executes nothing.
  EXPECT_EQ(unified.result.items, nullptr);
}

TEST(QueryApiDifferentialTest, ProfileEqualsExecuteProfileMode) {
  engine::Engine eng(SmallCorpus(), {});
  engine::QueryResult legacy = eng.Profile(BooksQuery());
  engine::QueryRequest req;
  req.text = BooksQuery();
  req.mode = engine::QueryMode::kProfile;
  engine::QueryResponse unified = eng.Execute(req);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(unified.ok());
  // Both carry a full trace and actually executed (no replay).
  ASSERT_NE(legacy.trace, nullptr);
  ASSERT_NE(unified.result.trace, nullptr);
  EXPECT_FALSE(legacy.result_cache_hit);
  EXPECT_FALSE(unified.result.result_cache_hit);
  EXPECT_EQ(engine::SerializeResultRows(legacy),
            engine::SerializeResultRows(unified.result));
}

TEST(QueryApiDifferentialTest, ExecuteAsyncCallbackDeliversOffThread) {
  engine::Engine eng(SmallCorpus(), {});
  engine::QueryRequest req;
  req.text = BooksQuery();
  uint64_t seq = eng.ReserveSequence();
  std::promise<engine::QueryResponse> delivered;
  eng.ExecuteAsync(std::move(req), seq,
                   [&](engine::QueryResponse resp) {
                     delivered.set_value(std::move(resp));
                   });
  engine::QueryResponse resp = delivered.get_future().get();
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.sequence(), seq);
  EXPECT_EQ(engine::SerializeResultRows(resp.result).size(), 3u);
}

}  // namespace
}  // namespace rox
