#ifndef SLICELINE_OBS_JSON_VALIDATE_H_
#define SLICELINE_OBS_JSON_VALIDATE_H_

#include <string>

namespace sliceline::obs {

/// Validates that `text` is exactly one strict (RFC 8259) JSON document
/// with nothing but whitespace after it. Returns the empty string when
/// valid, otherwise "<message> at byte <offset>". It returns ParseJson's
/// own message, so ValidateStrictJson(x).empty() == ParseJson(x).ok() for
/// every input: the json_validate CLI tool, the schema tests and the wire
/// protocols share one grammar.
std::string ValidateStrictJson(const std::string& text);

}  // namespace sliceline::obs

#endif  // SLICELINE_OBS_JSON_VALIDATE_H_
