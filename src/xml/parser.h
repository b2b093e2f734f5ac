// A small, dependency-free XML parser producing shredded Documents.
//
// Supports the XML subset needed by the workloads: elements, attributes,
// character data, CDATA sections, comments, processing instructions, the
// five predefined entities and numeric character references. It does not
// implement DTDs, namespaces-as-scoping (prefixes are kept verbatim in
// qualified names), or external entities.

#ifndef ROX_XML_PARSER_H_
#define ROX_XML_PARSER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/document.h"

namespace rox {

struct XmlParseOptions {
  // Discard text nodes that consist solely of whitespace (typical for
  // pretty-printed data documents; keeps shredded sizes honest).
  bool skip_whitespace_text = true;
  // Keep comments / processing instructions as nodes.
  bool keep_comments = false;
  bool keep_pis = false;

  // --- robustness caps (DESIGN.md §13) --------------------------------------
  // Parsing fails with kResourceExhausted (message naming the cap) once
  // any of these is exceeded; 0 disables the individual cap. Defaults
  // are generous — they exist to bound adversarial inputs, not to
  // constrain real workloads.

  // Total input size accepted (checked before any parsing).
  size_t max_input_bytes = size_t{1} << 30;  // 1 GiB
  // Attributes on a single element (attribute-flood guard).
  size_t max_attributes_per_element = 4096;
  // Total bytes produced by entity / character-reference expansion over
  // the whole document (reference-flood guard; the supported entity set
  // cannot recurse, so output is what needs bounding).
  size_t max_entity_expansion_bytes = size_t{1} << 26;  // 64 MiB
};

// Parses `xml` into a Document named `doc_name`, interning strings into
// `pool` (shared across a corpus; a fresh pool is created when null).
Result<std::unique_ptr<Document>> ParseXml(
    std::string_view xml, std::string doc_name,
    std::shared_ptr<StringPool> pool = nullptr,
    const XmlParseOptions& options = {});

// What a serialization is written as.
enum class XmlOutput : uint8_t {
  kXml,         // XML text
  kJsonString,  // the XML text as the contents of a JSON string literal
                // (no quotes): what JSON-escaping the kXml output gives,
                // produced in the same single pass
};

// Appends the serialization of the subtree rooted at `p` to `*out`.
void AppendSubtree(const Document& doc, Pre p, XmlOutput output,
                   std::string* out);

// Serializes `doc` back to XML text (no pretty-printing; entities are
// re-escaped). Round-trips documents produced by ParseXml up to
// whitespace-only text nodes and attribute order.
std::string SerializeXml(const Document& doc);

// Serializes the subtree rooted at `p` as XML text.
std::string SerializeSubtree(const Document& doc, Pre p);

}  // namespace rox

#endif  // ROX_XML_PARSER_H_
