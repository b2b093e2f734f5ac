#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

namespace perfbench {

namespace {

// splitmix64: tiny, seedable, and stable across platforms, so the
// inputs of a seed never change with the engine's own RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [lo, hi].
  int Between(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  bool Bernoulli(double p) { return Uniform() < p; }

 private:
  uint64_t state_;
};

// Mixes a seed with a stream tag, so each input kind draws from its
// own independent stream of the same --seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed * 0x2545f4914f6cdd1dULL + stream);
  return r.Next();
}

enum Stream : uint64_t {
  kXmarkStream = 1,
  kVenueStream = 2,
  kAdhocStream = 3,
  kHotStream = 4,
  kIngestStream = 5,
  kScheduleStream = 6,
};

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

// Inverse-CDF sampler of Zipf(s) ranks over [0, n).
class ZipfTable {
 public:
  ZipfTable(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng& rng) const {
    double u = rng.Uniform();
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// --- XMark-like auction document ---------------------------------------------

constexpr int kItems = 4350;
constexpr int kPersons = 5100;
constexpr int kAuctions = 2400;
constexpr double kMaxPrice = 250.0;

std::string XmarkXml(uint64_t seed) {
  Rng rng(StreamSeed(seed, kXmarkStream));
  std::string x;
  x.reserve(2u << 20);
  x += "<site>\n<regions>\n";
  for (int i = 0; i < kItems; ++i) {
    int quantity = rng.Bernoulli(0.8) ? 1 : rng.Between(2, 5);
    x += "<item id=\"item" + std::to_string(i) + "\"><quantity>" +
         std::to_string(quantity) + "</quantity><name>thing " +
         std::to_string(i) + "</name><payment>Creditcard</payment></item>\n";
  }
  x += "</regions>\n<people>\n";
  for (int i = 0; i < kPersons; ++i) {
    x += "<person id=\"person" + std::to_string(i) + "\"><name>user " +
         std::to_string(i) + "</name>";
    if (rng.Bernoulli(0.5)) {
      x += "<profile><education>Graduate School</education></profile>";
    }
    if (rng.Bernoulli(0.22)) {
      x += "<province>prov" + std::to_string(rng.Below(12)) + "</province>";
    }
    x += "</person>\n";
  }
  x += "</people>\n<open_auctions>\n";
  for (int i = 0; i < kAuctions; ++i) {
    double price = rng.Uniform() * kMaxPrice;
    // The injected correlation: expensive auctions draw more bidders.
    double expected = 1.5 + 11.0 * std::pow(price / kMaxPrice, 2.0);
    int bidders = std::max(
        0, static_cast<int>(std::llround(expected)) + rng.Between(-1, 1));
    x += "<open_auction id=\"open_auction" + std::to_string(i) +
         "\"><current>" + std::to_string(static_cast<int>(price)) +
         "</current><itemref item=\"item" +
         std::to_string(rng.Below(kItems)) + "\"/>";
    for (int b = 0; b < bidders; ++b) {
      x += "<bidder><personref person=\"person" +
           std::to_string(rng.Below(kPersons)) + "\"/><increase>" +
           std::to_string(rng.Between(1, 9)) + "</increase></bidder>";
    }
    if (rng.Bernoulli(0.6)) {
      x += "<reserve>" + std::to_string(static_cast<int>(price * 0.8)) +
           "</reserve>";
    }
    x += "</open_auction>\n";
  }
  x += "</open_auctions>\n</site>\n";
  return x;
}

// --- DBLP-like venue documents -----------------------------------------------

enum Area : int { kDB = 0, kIR, kDM, kNumAreas };
const char* const kAreaNames[kNumAreas] = {"DB", "IR", "DM"};

struct VenueSpec {
  const char* name;
  Area area;
  int author_tags;  // Table 3 counts at tag scale 0.5
};

// Ten Table 3 venues: five DB, four IR, one DM. Same-area venues share
// authors (joins hit), cross-area ones barely do.
const VenueSpec kVenues[] = {
    {"SIGMOD", kDB, 2956}, {"VLDB", kDB, 3432},  {"ICDE", kDB, 3084},
    {"EDBT", kDB, 670},    {"ADBIS", kDB, 474},  {"SIGIR", kIR, 2292},
    {"CIKM", kIR, 1842},   {"SPIRE", kIR, 362},  {"INEX", kIR, 171},
    {"KDD", kDM, 1600},
};
constexpr int kNumVenues = sizeof(kVenues) / sizeof(kVenues[0]);
// Venues small enough for the author+year theta family.
const int kSmallVenues[] = {3, 4, 7, 8};

// Distinct authors per area, and the "celebrity" head every venue of
// the area draws from uniformly.
constexpr int kPoolSize[kNumAreas] = {3800, 1500, 550};
constexpr int kCelebrities[kNumAreas] = {76, 30, 11};

// Writes one venue: articles of 1-4 authors drawn 85% Zipf(0.7) over a
// per-venue permutation of the area pool, 14% from a per-venue arc of
// the area's celebrities, 1% from another area's celebrities.
std::string VenueXml(const std::string& name, Area area, int author_tags,
                     Rng& rng) {
  static const ZipfTable* kZipf[kNumAreas] = {
      new ZipfTable(kPoolSize[kDB], 0.7), new ZipfTable(kPoolSize[kIR], 0.7),
      new ZipfTable(kPoolSize[kDM], 0.7)};
  std::vector<uint32_t> perm(static_cast<size_t>(kPoolSize[area]));
  for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Shuffle(perm, rng);
  const int celebs = kCelebrities[area];
  const int arc = std::max(4, celebs / 2);
  const int arc_start = static_cast<int>(rng.Below(celebs));

  auto author = [&](std::string* out) {
    int a = area;
    int idx;
    double u = rng.Uniform();
    if (u < 0.01) {
      a = static_cast<int>(rng.Below(kNumAreas));
      idx = static_cast<int>(rng.Below(kCelebrities[a]));
    } else if (u < 0.15) {
      idx = (arc_start + static_cast<int>(rng.Below(arc))) % celebs;
    } else {
      idx = static_cast<int>(perm[kZipf[area]->Draw(rng)]);
    }
    *out += "<author>";
    *out += kAreaNames[a];
    *out += "_author_" + std::to_string(idx) + "</author>";
  };

  std::string x;
  x.reserve(static_cast<size_t>(author_tags) * 80);
  x += "<venue name=\"" + name + "\">\n";
  int assigned = 0;
  for (int art = 0; assigned < author_tags; ++art) {
    int n = std::min(rng.Between(1, 4), author_tags - assigned);
    assigned += n;
    x += "<article key=\"" + name + "/" + std::to_string(art) + "\">";
    for (int i = 0; i < n; ++i) author(&x);
    x += "<title>A study in " + name + " no " + std::to_string(art) +
         "</title><year>" + std::to_string(1990 + rng.Below(20)) +
         "</year></article>\n";
  }
  x += "</venue>\n";
  return x;
}

// --- query families ----------------------------------------------------------

const char* const kVars[] = {"a", "b", "c", "e"};

std::string XmarkQ1(Rng& rng) {
  const bool lt = rng.Bernoulli(0.5);
  const int price = rng.Between(60, 200);
  const char* person = rng.Bernoulli(0.5) ? ".//province" : ".//education";
  const int quantity = rng.Between(1, 3);
  const char* ret[] = {"$o", "$p", "$i"};
  return std::string("let $d := doc(\"xmark.xml\")\n") +
         "for $o in $d//open_auction[.//current/text() " + (lt ? "<" : ">") +
         " " + std::to_string(price) + "],\n    $p in $d//person[" + person +
         "],\n    $i in $d//item[./quantity = " + std::to_string(quantity) +
         "]\nwhere $o//bidder//personref/@person = $p/@id and\n"
         "      $o//itemref/@item = $i/@id\nreturn " +
         ret[rng.Below(3)];
}

std::string DblpAuthors(Rng& rng) {
  // 2-, 3- or 4-way; the venues of one query are distinct.
  const int ways = 2 + static_cast<int>(rng.Below(3));
  std::vector<int> venues(kNumVenues);
  for (int i = 0; i < kNumVenues; ++i) venues[static_cast<size_t>(i)] = i;
  Shuffle(venues, rng);
  std::string q = "for ";
  for (int w = 0; w < ways; ++w) {
    if (w > 0) q += ",\n    ";
    q += std::string("$") + kVars[w] + " in doc(\"" +
         kVenues[venues[static_cast<size_t>(w)]].name + "\")//author";
  }
  // Star around $a, or a chain through the variables.
  const bool chain = rng.Bernoulli(0.5);
  q += "\nwhere ";
  for (int w = 1; w < ways; ++w) {
    if (w > 1) q += " and ";
    q += std::string("$") + kVars[chain ? w - 1 : 0] + "/text() = $" +
         kVars[w] + "/text()";
  }
  q += std::string("\nreturn $") + kVars[rng.Below(static_cast<uint64_t>(ways))];
  return q;
}

// Reserves of cheap auctions against currents of expensive ones (or
// the mirror image for > and >=): most pairs qualify, so the output is
// about |cheap| x |expensive| rows; the ranges keep it under ~100K.
// `dear_side` returns the expensive auctions (the widest rows: ~10
// bidders each) instead of a random side; `narrow` draws from narrow
// ranges (hot texts: similar cost per seed).
std::string PriceTheta(Rng& rng, bool dear_side = false,
                       bool narrow = false) {
  const char* ops[] = {"<", "<=", ">", ">=", "!="};
  const int op = static_cast<int>(rng.Below(5));
  const int lo = narrow ? rng.Between(15, 20) : rng.Between(5, 30);
  const int hi = narrow ? rng.Between(205, 215) : rng.Between(190, 240);
  const bool mirror = op == 2 || op == 3;
  const std::string cheap =
      "[.//current/text() < " + std::to_string(lo) + "]";
  const std::string dear =
      "[.//current/text() > " + std::to_string(hi) + "]";
  const bool ret_a = dear_side ? mirror : rng.Bernoulli(0.5);
  return std::string("let $d := doc(\"xmark.xml\")\n") +
         "for $a in $d//open_auction" + (mirror ? dear : cheap) +
         ",\n    $b in $d//open_auction" + (mirror ? cheap : dear) +
         "\nwhere $a//reserve " + ops[op] + " $b//current\nreturn " +
         (ret_a ? "$a" : "$b");
}

std::string BidderPerson(Rng& rng) {
  const char* ops[] = {"<", ">", "="};
  const char* price_op = rng.Bernoulli(0.5) ? "<" : ">";
  const int price = rng.Between(40, 220);
  const char* inc_op = ops[rng.Below(3)];
  const int inc = rng.Between(2, 8);
  const char* person[] = {"[.//province]", "[.//education]", ""};
  return std::string("let $d := doc(\"xmark.xml\")\n") +
         "for $b in $d//open_auction[.//current/text() " + price_op + " " +
         std::to_string(price) + "]//bidder[./increase " + inc_op + " " +
         std::to_string(inc) + "],\n    $p in $d//person" +
         person[rng.Below(3)] +
         "\nwhere $b//personref/@person = $p/@id\nreturn " +
         (rng.Bernoulli(0.5) ? "$b" : "$p");
}

std::string Disjunctive(Rng& rng) {
  const int q1 = rng.Between(1, 4);
  const int q2 = rng.Between(q1 + 1, 5);
  const bool lt = rng.Bernoulli(0.5);
  const int price = rng.Between(20, 230);
  return std::string("let $d := doc(\"xmark.xml\")\n") +
         "for $i in $d//item[./quantity = " + std::to_string(q1) +
         " or ./quantity = " + std::to_string(q2) +
         "],\n    $o in $d//open_auction[.//current/text() " +
         (lt ? "<" : ">") + " " + std::to_string(price) +
         "]\nwhere $o//itemref/@item = $i/@id\nreturn " +
         (rng.Bernoulli(0.5) ? "$i" : "$o");
}

std::string AuthorYear(Rng& rng) {
  const char* ops[] = {"<", "<=", ">", ">=", "!="};
  const size_t n = sizeof(kSmallVenues) / sizeof(kSmallVenues[0]);
  const size_t i = rng.Below(n);
  const size_t j = (i + 1 + rng.Below(n - 1)) % n;
  return std::string("for $a in doc(\"") + kVenues[kSmallVenues[i]].name +
         "\")//article[./year >= " + std::to_string(rng.Between(1990, 2005)) +
         "],\n    $b in doc(\"" + kVenues[kSmallVenues[j]].name +
         "\")//article\nwhere $a/author = $b/author and $a/year " +
         ops[rng.Below(5)] + " $b/year\nreturn " +
         (rng.Bernoulli(0.5) ? "$a" : "$b");
}

std::string FamilyQuery(int family, Rng& rng) {
  switch (family) {
    case kXmarkQ1:
      return XmarkQ1(rng);
    case kDblpAuthors:
      return DblpAuthors(rng);
    case kPriceTheta:
      return PriceTheta(rng);
    case kBidderPerson:
      return BidderPerson(rng);
    case kDisjunctive:
      return Disjunctive(rng);
    default:
      return AuthorYear(rng);
  }
}

// A hot text for popularity rank `rank`: its family and return
// variable are fixed by the rank, and its parameters come from the
// large-result end of the family, in narrow ranges, so a rank's
// response size barely depends on the seed. A cache hit costs about
// its response bytes, and a shared 4-vCPU VM alternates between two
// CPU speeds about 1.5x apart, so every family is two latency
// clusters (see NOTES.md, "Noise"). The four lighter families
// (75-250 KB at the hot workloads' 2000-row cap) interleave with each
// other's slow copies, so the median never sits on one tight cluster
// and follows the mean as the speed mix changes between runs. The
// least popular residue returns the expensive side of auction pairs
// (~1.8 MB, ~15 ms), so p99 is render work that scheduler stalls of a
// few ms barely move.
constexpr int kHotFamilies[5] = {kXmarkQ1, kDisjunctive, kDblpAuthors,
                                 kBidderPerson, kPriceTheta};

std::string HotQuery(size_t rank, Rng& rng) {
  const bool first = (rank / 5) % 2 == 0;
  switch (kHotFamilies[rank % 5]) {
    case kXmarkQ1:
      return "let $d := doc(\"xmark.xml\")\n"
             "for $o in $d//open_auction[.//current/text() > " +
             std::to_string(rng.Between(140, 160)) +
             "],\n    $p in $d//person[.//education],\n"
             "    $i in $d//item[./quantity = 1]\n"
             "where $o//bidder//personref/@person = $p/@id and\n"
             "      $o//itemref/@item = $i/@id\nreturn $p";
    case kDblpAuthors: {
      // Joins among the three large DB venues.
      std::vector<int> v = {0, 1, 2};
      Shuffle(v, rng);
      const int ways = 2 + static_cast<int>(rng.Below(2));
      std::string q = "for ";
      for (int w = 0; w < ways; ++w) {
        if (w > 0) q += ", ";
        q += std::string("$") + kVars[w] + " in doc(\"" +
             kVenues[v[static_cast<size_t>(w)]].name + "\")//author";
      }
      q += "\nwhere $a/text() = $b/text()";
      if (ways == 3) {
        q += rng.Bernoulli(0.5) ? " and $a/text() = $c/text()"
                                : " and $b/text() = $c/text()";
      }
      return q + "\nreturn " + (first ? "$a" : "$b");
    }
    case kPriceTheta:
      return PriceTheta(rng, /*dear_side=*/true, /*narrow=*/true);
    case kBidderPerson:
      return "let $d := doc(\"xmark.xml\")\n"
             "for $b in $d//open_auction[.//current/text() > " +
             std::to_string(rng.Between(100, 120)) +
             "]//bidder[./increase >= 8" +
             "],\n    $p in $d//person\n"
             "where $b//personref/@person = $p/@id\nreturn $p";
    default:
      return "let $d := doc(\"xmark.xml\")\n"
             "for $i in $d//item[./quantity = 1 or ./quantity = " +
             std::to_string(rng.Between(2, 5)) +
             "],\n    $o in $d//open_auction[.//current/text() > " +
             std::to_string(rng.Between(40, 60)) +
             "]\nwhere $o//itemref/@item = $i/@id\nreturn $i";
  }
}

// Requests per family in every block of 100 adhoc requests.
constexpr int kAdhocQuota[kNumFamilies] = {24, 24, 14, 17, 18, 3};

}  // namespace

const char* FamilyName(int family) {
  static const char* const kNames[kNumFamilies] = {
      "xmark_q1", "dblp_authors", "price_theta",
      "bidder_person", "disjunctive", "author_year"};
  return family >= 0 && family < kNumFamilies ? kNames[family] : "?";
}

std::vector<Doc> CorpusDocs(uint64_t seed) {
  std::vector<Doc> docs;
  docs.push_back({"xmark.xml", XmarkXml(seed)});
  Rng rng(StreamSeed(seed, kVenueStream));
  for (const VenueSpec& s : kVenues) {
    docs.push_back({s.name, VenueXml(s.name, s.area, s.author_tags, rng)});
  }
  return docs;
}

std::vector<Request> AdhocRequests(uint64_t seed, size_t count) {
  Rng rng(StreamSeed(seed, kAdhocStream));
  std::unordered_set<std::string> seen;
  std::vector<Request> out;
  out.reserve(count);
  std::vector<int> block;
  for (int f = 0; f < kNumFamilies; ++f) {
    block.insert(block.end(), static_cast<size_t>(kAdhocQuota[f]), f);
  }
  while (out.size() < count) {
    Shuffle(block, rng);
    for (int f : block) {
      if (out.size() == count) break;
      // Redraw until the text is new; every family's parameter space
      // is far larger than any run's share of it.
      for (;;) {
        std::string q = FamilyQuery(f, rng);
        if (seen.insert(NormalizeQuery(q)).second) {
          out.push_back({std::move(q), f});
          break;
        }
      }
    }
  }
  return out;
}

std::vector<Request> HotSet(uint64_t seed) {
  Rng rng(StreamSeed(seed, kHotStream));
  std::unordered_set<std::string> seen;
  std::vector<Request> out;
  while (out.size() < kHotSetSize) {
    std::string q = HotQuery(out.size(), rng);
    if (seen.insert(NormalizeQuery(q)).second) {
      out.push_back({std::move(q), kHotFamilies[out.size() % 5]});
    }
  }
  return out;
}

std::vector<uint32_t> ZipfSchedule(uint64_t seed, size_t n, size_t k,
                                   double s) {
  Rng rng(StreamSeed(seed, kScheduleStream));
  ZipfTable zipf(k, s);
  std::vector<uint32_t> out(n);
  for (uint32_t& v : out) v = static_cast<uint32_t>(zipf.Draw(rng));
  return out;
}

std::vector<Doc> IngestDocs(uint64_t seed, size_t count) {
  Rng rng(StreamSeed(seed, kIngestStream));
  std::vector<Doc> out;
  for (size_t i = 0; i < count; ++i) {
    std::string name = "ingest_" + std::to_string(i);
    Area area = static_cast<Area>(i % kNumAreas);
    out.push_back({name, VenueXml(name, area, 8000, rng)});
  }
  return out;
}

std::string NormalizeQuery(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  char quote = 0;
  bool pending = false;
  for (char c : text) {
    if (quote != 0) {
      out.push_back(c);
      if (c == quote) quote = 0;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      pending = true;
      continue;
    }
    if (pending && !out.empty()) out.push_back(' ');
    pending = false;
    if (c == '"' || c == '\'') quote = c;
    out.push_back(c);
  }
  return out;
}

uint64_t Digest(const char* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ULL ^ size;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < size; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 0x100000001b3ULL;
  }
  return h ^ (h >> 32);
}

}  // namespace perfbench
