#include "obs/json_validate.h"

#include "obs/json_parse.h"

namespace sliceline::obs {

std::string ValidateStrictJson(const std::string& text) {
  const StatusOr<JsonValue> parsed = ParseJson(text);
  return parsed.ok() ? "" : parsed.status().message();
}

}  // namespace sliceline::obs
