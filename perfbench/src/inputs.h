// Seeded inputs of the benchmark: the served corpus as XML text, the
// request lists of each workload, and the documents the ingest writer
// publishes. Everything here is a pure function of the seed, and uses
// its own RNG and generators (not the engine's), so the inputs of a
// given seed stay byte-identical while the engine underneath changes.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Doc {
  std::string name;
  std::string xml;
};

// The served corpus: "xmark.xml" (XMark-like auctions with the price ↔
// bidder-count correlation of the paper's Q1/Qm1) plus ten DBLP venue
// documents. About 3 MB of XML.
std::vector<Doc> CorpusDocs(uint64_t seed);

// Join query families of the request lists.
enum Family : int {
  kXmarkQ1 = 0,      // correlated 3-way XMark Q1/Qm1 joins
  kDblpAuthors,      // 2-, 3- and 4-way DBLP author equi-joins
  kPriceTheta,       // XMark price theta joins
  kBidderPerson,     // bidder -> person lookup joins
  kDisjunctive,      // disjunctive-predicate joins
  kAuthorYear,       // DBLP author + year theta joins
  kNumFamilies
};
const char* FamilyName(int family);

struct Request {
  std::string text;
  int family = 0;
};

// `count` distinct join queries for adhoc_join, in send order. The
// family mix is stratified: every block of 100 consecutive requests
// holds the same number of each family, so a run's mix does not depend
// on how many requests it got through.
std::vector<Request> AdhocRequests(uint64_t seed, size_t count);

// The popular set of hot_replay and ingest_mixed: kHotSetSize texts
// from the same families (no author+year), read only the served corpus.
inline constexpr size_t kHotSetSize = 50;
std::vector<Request> HotSet(uint64_t seed);

// `n` indices into a set of `k` texts, Zipf(s)-distributed by rank.
std::vector<uint32_t> ZipfSchedule(uint64_t seed, size_t n, size_t k,
                                   double s);

// The distinct DBLP-venue documents the ingest writer cycles through
// (each publish names its copy "ingest_<n>"). Large enough that parse
// and index dominate a publish.
std::vector<Doc> IngestDocs(uint64_t seed, size_t count);

// Collapses whitespace runs outside quotes, the way the engine's cache
// keys query texts; distinctness of request texts is checked on it.
std::string NormalizeQuery(const std::string& text);

// FNV-style 64-bit digest, fed 8 bytes at a time.
uint64_t Digest(const char* data, size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
