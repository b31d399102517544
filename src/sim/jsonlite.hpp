// Minimal recursive-descent JSON reader for the repo's declarative inputs
// (FaultPlan repro files, ChaosSpace descriptions). Deliberately small: it
// parses the subset the serializers in this repo emit — objects, arrays,
// strings, numbers, booleans, null — into one tagged value tree, and every
// error carries the byte offset plus what was expected, so a hand-edited
// repro file fails with an actionable message rather than a silent default.
//
// Writing stays with the callers (each serializer emits a fixed key order so
// round-trips are byte-stable); this header only standardizes reading and
// the shortest-round-trip double formatting both sides share.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace decentnet::sim::jsonlite {

/// One parsed JSON value. Object members keep document order.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  // Exact payload for integral literals: doubles lose precision above 2^53,
  // which would corrupt uint64 chaos seeds in repro files. `negative` holds
  // the sign, `magnitude` the absolute value.
  bool is_integer = false;
  bool negative = false;
  std::uint64_t magnitude = 0;
  std::string str;
  std::vector<JsonValue> items;                            // Array
  std::vector<std::pair<std::string, JsonValue>> members;  // Object

  /// Member lookup (Object only); nullptr when absent.
  const JsonValue* find(std::string_view key) const;

  /// Member lookup that throws std::invalid_argument naming `context` and
  /// the missing key.
  const JsonValue& at(std::string_view key, std::string_view context) const;

  /// Typed coercions; throw std::invalid_argument naming `context` on a
  /// kind mismatch (e.g. "fault plan event 3: 'at' must be a number").
  double as_number(std::string_view context) const;
  std::int64_t as_int(std::string_view context) const;
  std::uint64_t as_uint(std::string_view context) const;
  const std::string& as_string(std::string_view context) const;
  const std::vector<JsonValue>& as_array(std::string_view context) const;

  const char* kind_name() const;
};

/// Parse one complete JSON document. Throws std::invalid_argument with the
/// byte offset and expectation on malformed input or trailing garbage.
JsonValue parse(std::string_view text);

/// Shortest-round-trip double formatting (matches the experiment artifact
/// writer): integers render without exponent noise, and parse(format(x))
/// re-formats to the same bytes — the property the plan round-trip tests pin.
std::string format_double(double v);

}  // namespace decentnet::sim::jsonlite
