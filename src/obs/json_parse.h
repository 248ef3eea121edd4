#ifndef SLICELINE_OBS_JSON_PARSE_H_
#define SLICELINE_OBS_JSON_PARSE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace sliceline::obs {

/// Parsed strict-JSON document tree: RFC 8259 with no trailing commas, no
/// NaN/Infinity, no comments, no unpaired \u surrogates. Objects preserve
/// insertion order; duplicate keys are a parse error (the wire protocols
/// treat them as malformed requests, and nothing in this repo emits them).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  // -- typed decoders --------------------------------------------------------
  // The one set of field decoders every reader uses: both wire protocols,
  // the result JSON and the fuzz replay records. An integer decoder accepts
  // only an integral number inside Int's range (int64_t or int32_t), so no
  // double is ever cast blindly. Every error is an InvalidArgument naming
  // the key (the wire protocols' structured "invalid_argument" errors come
  // from these messages).
  //
  //   Get*Or     fallback when the key is absent or does not decode (for
  //              replies from a peer that is trusted to be well-formed);
  //   Optional*  fallback when the key is absent, an error when it is
  //              present but does not decode;
  //   Require*   an error when the key is absent or does not decode.

  /// This value as an integer; `what` names it in the error.
  template <typename Int = int64_t>
  StatusOr<Int> AsInt(const std::string& what) const;

  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;
  double GetNumberOr(const std::string& key, double fallback) const;
  int64_t GetIntOr(const std::string& key, int64_t fallback) const;
  bool GetBoolOr(const std::string& key, bool fallback) const;

  StatusOr<std::string> OptionalString(const std::string& key,
                                       const std::string& fallback) const;
  StatusOr<double> OptionalNumber(const std::string& key,
                                  double fallback) const;
  StatusOr<int64_t> OptionalInt(const std::string& key,
                                int64_t fallback) const;
  StatusOr<bool> OptionalBool(const std::string& key, bool fallback) const;

  StatusOr<std::string> RequireString(const std::string& key) const;
  StatusOr<double> RequireNumber(const std::string& key) const;
  template <typename Int = int64_t>
  StatusOr<Int> RequireInt(const std::string& key) const;
  StatusOr<bool> RequireBool(const std::string& key) const;
  /// 64-bit unsigned values travel as decimal strings: a JSON number is a
  /// double and cannot hold every uint64_t.
  StatusOr<uint64_t> RequireUint64String(const std::string& key) const;

  StatusOr<const JsonValue*> RequireArray(const std::string& key) const;
  StatusOr<std::vector<std::string>> RequireStringArray(
      const std::string& key) const;
  StatusOr<std::vector<double>> RequireNumberArray(
      const std::string& key) const;
  template <typename Int = int64_t>
  StatusOr<std::vector<Int>> RequireIntArray(const std::string& key) const;

  // -- construction (parser + tests) ----------------------------------------
  static JsonValue Null();
  static JsonValue Bool(bool v);
  static JsonValue Number(double v);
  static JsonValue String(std::string v);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> m);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses exactly one strict-JSON document (trailing whitespace allowed,
/// anything else after it is an error). Errors carry "<message> at byte
/// <offset>". This is the only JSON grammar in the repo: ValidateStrictJson
/// and both wire protocols call it.
StatusOr<JsonValue> ParseJson(const std::string& text);

}  // namespace sliceline::obs

#endif  // SLICELINE_OBS_JSON_PARSE_H_
