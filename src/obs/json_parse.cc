#include "obs/json_parse.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace sliceline::obs {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

Status FieldError(const std::string& key, const char* expected) {
  return Status::InvalidArgument("field '" + key + "' must be " + expected);
}

Status MissingField(const std::string& key) {
  return Status::InvalidArgument("missing field '" + key + "'");
}

}  // namespace

template <typename Int>
StatusOr<Int> JsonValue::AsInt(const std::string& what) const {
  // Both bounds are exact doubles (-2^63 and 2^63 for int64_t; kMax is the
  // first value past max()), so the range is decided before any cast.
  constexpr double kMin = static_cast<double>(std::numeric_limits<Int>::min());
  constexpr double kMax = -kMin;
  if (!is_number() || !(number_ >= kMin && number_ < kMax) ||
      number_ != std::trunc(number_)) {
    return FieldError(what, sizeof(Int) == 4 ? "a 32-bit integer"
                                             : "a 64-bit integer");
  }
  return static_cast<Int>(number_);
}

std::string JsonValue::GetStringOr(const std::string& key,
                                   const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value() : fallback;
}

double JsonValue::GetNumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : fallback;
}

int64_t JsonValue::GetIntOr(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  StatusOr<int64_t> decoded = v->AsInt(key);
  return decoded.ok() ? decoded.value() : fallback;
}

bool JsonValue::GetBoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : fallback;
}

StatusOr<std::string> JsonValue::OptionalString(
    const std::string& key, const std::string& fallback) const {
  return Find(key) == nullptr ? fallback : RequireString(key);
}

StatusOr<double> JsonValue::OptionalNumber(const std::string& key,
                                           double fallback) const {
  return Find(key) == nullptr ? fallback : RequireNumber(key);
}

StatusOr<int64_t> JsonValue::OptionalInt(const std::string& key,
                                         int64_t fallback) const {
  const JsonValue* v = Find(key);
  return v == nullptr ? fallback : v->AsInt(key);
}

StatusOr<bool> JsonValue::OptionalBool(const std::string& key,
                                       bool fallback) const {
  return Find(key) == nullptr ? fallback : RequireBool(key);
}

StatusOr<std::string> JsonValue::RequireString(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return MissingField(key);
  if (!v->is_string()) return FieldError(key, "a string");
  return v->string_value();
}

StatusOr<double> JsonValue::RequireNumber(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return MissingField(key);
  if (!v->is_number()) return FieldError(key, "a number");
  return v->number_value();
}

template <typename Int>
StatusOr<Int> JsonValue::RequireInt(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return MissingField(key);
  return v->AsInt<Int>(key);
}

StatusOr<bool> JsonValue::RequireBool(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return MissingField(key);
  if (!v->is_bool()) return FieldError(key, "a boolean");
  return v->bool_value();
}

StatusOr<uint64_t> JsonValue::RequireUint64String(
    const std::string& key) const {
  SLICELINE_ASSIGN_OR_RETURN(const std::string text, RequireString(key));
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) {
    return FieldError(key, "a decimal uint64 string");
  }
  return value;
}

StatusOr<const JsonValue*> JsonValue::RequireArray(
    const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return MissingField(key);
  if (!v->is_array()) return FieldError(key, "an array");
  return v;
}

StatusOr<std::vector<std::string>> JsonValue::RequireStringArray(
    const std::string& key) const {
  SLICELINE_ASSIGN_OR_RETURN(const JsonValue* array, RequireArray(key));
  std::vector<std::string> out;
  out.reserve(array->array_.size());
  for (const JsonValue& item : array->array_) {
    if (!item.is_string()) return FieldError(key, "an array of strings");
    out.push_back(item.string_);
  }
  return out;
}

StatusOr<std::vector<double>> JsonValue::RequireNumberArray(
    const std::string& key) const {
  SLICELINE_ASSIGN_OR_RETURN(const JsonValue* array, RequireArray(key));
  std::vector<double> out;
  out.reserve(array->array_.size());
  for (const JsonValue& item : array->array_) {
    if (!item.is_number()) return FieldError(key, "an array of numbers");
    out.push_back(item.number_);
  }
  return out;
}

template <typename Int>
StatusOr<std::vector<Int>> JsonValue::RequireIntArray(
    const std::string& key) const {
  SLICELINE_ASSIGN_OR_RETURN(const JsonValue* array, RequireArray(key));
  std::vector<Int> out;
  out.reserve(array->array_.size());
  for (const JsonValue& item : array->array_) {
    SLICELINE_ASSIGN_OR_RETURN(const Int value, item.AsInt<Int>(key));
    out.push_back(value);
  }
  return out;
}

template StatusOr<int32_t> JsonValue::AsInt<int32_t>(
    const std::string&) const;
template StatusOr<int64_t> JsonValue::AsInt<int64_t>(
    const std::string&) const;
template StatusOr<int32_t> JsonValue::RequireInt<int32_t>(
    const std::string&) const;
template StatusOr<int64_t> JsonValue::RequireInt<int64_t>(
    const std::string&) const;
template StatusOr<std::vector<int32_t>> JsonValue::RequireIntArray<int32_t>(
    const std::string&) const;
template StatusOr<std::vector<int64_t>> JsonValue::RequireIntArray<int64_t>(
    const std::string&) const;

JsonValue JsonValue::Null() { return JsonValue(); }

JsonValue JsonValue::Bool(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::Number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::String(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(items);
  return out;
}

JsonValue JsonValue::Object(
    std::vector<std::pair<std::string, JsonValue>> m) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(m);
  return out;
}

namespace {

/// Recursive-descent parser building the value tree; the repo's one strict-
/// JSON grammar.
class TreeParser {
 public:
  explicit TreeParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    SLICELINE_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  StatusOr<JsonValue> ParseValue() {
    if (++depth_ > kMaxDepth) return Error("nesting too deep");
    auto out = ParseValueInner();
    --depth_;
    return out;
  }

  StatusOr<JsonValue> ParseValueInner() {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        SLICELINE_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::String(std::move(s));
      }
      case 't':
        SLICELINE_RETURN_NOT_OK(ParseLiteral("true"));
        return JsonValue::Bool(true);
      case 'f':
        SLICELINE_RETURN_NOT_OK(ParseLiteral("false"));
        return JsonValue::Bool(false);
      case 'n':
        SLICELINE_RETURN_NOT_OK(ParseLiteral("null"));
        return JsonValue::Null();
      default:
        return ParseNumber();
    }
  }

  Status ParseLiteral(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Error(std::string("invalid literal, expected ") + literal);
      }
      ++pos_;
    }
    return Status::OK();
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // consume '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return JsonValue::Object(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      SLICELINE_ASSIGN_OR_RETURN(std::string key, ParseString());
      for (const auto& [k, v] : members) {
        if (k == key) return Error("duplicate object key '" + key + "'");
      }
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SkipWhitespace();
      SLICELINE_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return JsonValue::Object(std::move(members));
      }
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // consume '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return JsonValue::Array(std::move(items));
    }
    while (true) {
      SkipWhitespace();
      SLICELINE_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      items.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return JsonValue::Array(std::move(items));
      }
      return Error("expected ',' or ']' in array");
    }
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

  StatusOr<uint32_t> ParseHex4() {
    uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size() ||
          !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("invalid \\u escape");
      }
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<uint32_t>(c - '0');
      } else {
        cp |= static_cast<uint32_t>((c | 0x20) - 'a' + 10);
      }
    }
    return cp;
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // consume opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("unterminated escape");
        const char e = text_[pos_];
        switch (e) {
          case '"':
            out.push_back('"');
            ++pos_;
            break;
          case '\\':
            out.push_back('\\');
            ++pos_;
            break;
          case '/':
            out.push_back('/');
            ++pos_;
            break;
          case 'b':
            out.push_back('\b');
            ++pos_;
            break;
          case 'f':
            out.push_back('\f');
            ++pos_;
            break;
          case 'n':
            out.push_back('\n');
            ++pos_;
            break;
          case 'r':
            out.push_back('\r');
            ++pos_;
            break;
          case 't':
            out.push_back('\t');
            ++pos_;
            break;
          case 'u': {
            ++pos_;
            SLICELINE_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be followed by \uDC00-\uDFFF.
              if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Error("unpaired surrogate in \\u escape");
              }
              pos_ += 2;
              SLICELINE_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate in \\u escape");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Error("unpaired surrogate in \\u escape");
            }
            AppendUtf8(cp, &out);
            break;
          }
          default:
            return Error("invalid escape character");
        }
      } else {
        out.push_back(static_cast<char>(c));
        ++pos_;
      }
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Error("invalid number");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero must not be followed by digits
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("expected digits after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("expected digits in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    return JsonValue::Number(std::strtod(token.c_str(), nullptr));
  }

  static constexpr int kMaxDepth = 512;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return TreeParser(text).Parse();
}

}  // namespace sliceline::obs
