#include "common/escape.h"

#include <cstdio>

#include "common/check.h"

namespace rox {

void EscapeTable::Set(unsigned char b, std::string_view replacement) {
  ROX_CHECK(!replacement.empty() && replacement.size() <= kMaxReplacement);
  replacement.copy(rep_[b], replacement.size());
  len_[b] = static_cast<uint8_t>(replacement.size());
}

const EscapeTable& JsonEscapeTable() {
  static const EscapeTable table = [] {
    EscapeTable t;
    for (unsigned b = 0; b < 0x20; ++b) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", b);
      t.Set(static_cast<unsigned char>(b), buf);
    }
    t.Set('\n', "\\n");
    t.Set('\r', "\\r");
    t.Set('\t', "\\t");
    t.Set('"', "\\\"");
    t.Set('\\', "\\\\");
    return t;
  }();
  return table;
}

}  // namespace rox
