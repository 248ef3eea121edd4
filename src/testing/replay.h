#ifndef SLICELINE_TESTING_REPLAY_H_
#define SLICELINE_TESTING_REPLAY_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "testing/random_dataset.h"

namespace sliceline::testing {

/// A self-contained failing test case. Shrunk datasets cannot be regenerated
/// from their seed, so the record stores the full feature matrix, error
/// vector, and configuration — everything needed to re-execute the failed
/// check on any build.
struct ReplayRecord {
  std::string check;    ///< "oracle", "kernel", "metamorphic", "determinism"
  std::string failure;  ///< diagnostic produced at capture time
  uint64_t case_index = 0;  ///< position in the fuzz stream
  int kernel_rounds = 0;    ///< only for check == "kernel" (dataset unused)
  FuzzCase fuzz_case;
};

/// Serializes to one line of strict JSON (obs::JsonWriter). Doubles are
/// printed with 17 significant digits so the parse round-trips bit-exactly.
std::string ReplayToJson(const ReplayRecord& record);

/// Parses a document produced by ReplayToJson with obs::ParseJson (strict
/// field set: every key required, unknown keys rejected so version skew is
/// loud, not silent; integers must be integral and in range).
StatusOr<ReplayRecord> ReplayFromJson(const std::string& json);

/// File convenience wrappers.
Status WriteReplayFile(const std::string& path, const ReplayRecord& record);
StatusOr<ReplayRecord> ReadReplayFile(const std::string& path);

}  // namespace sliceline::testing

#endif  // SLICELINE_TESTING_REPLAY_H_
