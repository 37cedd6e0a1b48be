// Minimal JSON reader/writer helpers: JsonEscape for the plan's JSON
// writer, and the reader cgdnn_stats parses the live serving-stats snapshot
// with.
//
// The reader is a small recursive-descent parser over the JSON subset the
// repo's own writers emit (objects, arrays, strings with standard escapes,
// doubles, bools, null) — not a general-purpose validator. Anything
// malformed parses to failure.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cgdnn/core/common.hpp"

namespace cgdnn::plan {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses `text` into `out`; false on any syntax error (out unspecified).
  static bool Parse(std::string_view text, JsonValue* out);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool AsBool(bool def = false) const {
    return kind_ == Kind::kBool ? bool_ : def;
  }
  double AsNumber(double def = 0) const {
    return kind_ == Kind::kNumber ? number_ : def;
  }
  index_t AsInt(index_t def = 0) const {
    return kind_ == Kind::kNumber ? static_cast<index_t>(number_) : def;
  }
  const std::string& AsString() const { return string_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  const std::vector<JsonValue>& array() const { return array_; }

  // Convenience: typed member access with defaults (missing -> default).
  std::string GetString(const std::string& key, std::string def = "") const;
  double GetNumber(const std::string& key, double def = 0) const;
  index_t GetInt(const std::string& key, index_t def = 0) const;
  bool GetBool(const std::string& key, bool def = false) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes a string for embedding in JSON output (no surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace cgdnn::plan
