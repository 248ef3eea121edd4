// Process-level chaos suite for the distributed execution mode: real
// sliceline_worker processes (SLICELINE_WORKER_BIN, injected by CMake) are
// spawned on loopback ports and a seeded subset is SIGKILLed, suspended
// (SIGSTOP), restarted, or configured to drop connections at level
// boundaries. Every scenario must produce a top-K bit-identical to the
// single-node engine: the error values are dyadic rationals (multiples of
// 1/4), so floating-point summation is exact in any association order and
// "equivalent" is checkable with operator== instead of tolerances.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/sliceline.h"
#include "dist/coordinator.h"

namespace sliceline::dist {
namespace {

/// One real worker process; stdout is piped so the test can wait for the
/// READY line and discover the kernel-assigned port.
class WorkerProcess {
 public:
  ~WorkerProcess() { Kill(); }

  /// Spawns SLICELINE_WORKER_BIN --port <port> [extra args...].
  bool Start(int port, const std::vector<std::string>& extra = {}) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::close(pipe_fds[0]);
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[1]);
      std::vector<std::string> args = {SLICELINE_WORKER_BIN, "--port",
                                       std::to_string(port), "--log-level",
                                       "error"};
      args.insert(args.end(), extra.begin(), extra.end());
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    // Wait for "READY port=N\n".
    std::string line;
    char ch = 0;
    while (::read(pipe_fds[0], &ch, 1) == 1 && ch != '\n') line.push_back(ch);
    ::close(pipe_fds[0]);
    const std::string prefix = "READY port=";
    if (line.compare(0, prefix.size(), prefix) != 0) return false;
    port_ = std::atoi(line.c_str() + prefix.size());
    return port_ > 0;
  }

  int port() const { return port_; }
  bool running() const { return pid_ > 0; }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  /// Returns once the worker is stopped. kill() only queues SIGSTOP: the
  /// group stop begins when the thread the kernel picked next runs, and
  /// until then the worker's serving thread can still answer requests.
  void Suspend() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGSTOP);
    int status = 0;
    ::waitpid(pid_, &status, WUNTRACED);
  }
  void Resume() {
    if (pid_ > 0) ::kill(pid_, SIGCONT);
  }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
};

struct ChaosInput {
  data::IntMatrix x0;
  std::vector<double> errors;
};

/// Random categorical matrix with dyadic-rational errors (multiples of 1/4):
/// sums of these are exact doubles, so distributed and single-node
/// aggregation agree bit for bit no matter how shards split the sum. The
/// error is additive over three planted feature values, which keeps real
/// (non-prunable) candidates alive through level 3 -- uniform random errors
/// would let the upper bounds prune everything after one Evaluate round, and
/// the round-1 fault hooks below would never fire.
ChaosInput MakeDyadicInput(uint64_t seed, int64_t n, int m, int max_dom) {
  Rng rng(seed);
  ChaosInput input;
  input.x0 = data::IntMatrix(n, m);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      input.x0.At(i, j) = static_cast<int32_t>(rng.NextUint64(max_dom)) + 1;
    }
  }
  input.errors.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    double e = static_cast<double>(rng.NextUint64(2)) / 4.0;  // 0 or .25
    if (input.x0.At(i, 0) == 1) e += 0.5;
    if (m > 1 && input.x0.At(i, 1) == 2) e += 0.5;
    if (m > 2 && input.x0.At(i, 2) == 3 && max_dom >= 3) e += 0.5;
    input.errors[i] = e;
  }
  return input;
}

class ChaosTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 4;

  void StartFleet(const std::vector<std::string>& extra = {},
                  int workers = kWorkers) {
    for (int i = 0; i < workers; ++i) {
      auto worker = std::make_unique<WorkerProcess>();
      ASSERT_TRUE(worker->Start(0, extra)) << "worker " << i;
      fleet_.push_back(std::move(worker));
    }
  }

  std::vector<WorkerEndpoint> Endpoints() const {
    std::vector<WorkerEndpoint> out;
    for (const auto& worker : fleet_) {
      out.push_back(WorkerEndpoint{"", worker->port()});
    }
    return out;
  }

  RemoteDistOptions Options() const {
    RemoteDistOptions options;
    options.endpoints = Endpoints();
    options.connect_timeout_ms = 500;
    options.request_timeout_ms = 3000;
    options.straggler_after_ms = 60000;  // enabled per-scenario
    options.max_retries = 3;
    options.backoff_base_seconds = 0.005;
    return options;
  }

  /// Asserts the distributed top-K is bit-identical to the single-node one.
  void ExpectBitIdentical(const core::SliceLineResult& remote,
                          const core::SliceLineResult& local) {
    ASSERT_EQ(remote.top_k.size(), local.top_k.size());
    for (size_t i = 0; i < remote.top_k.size(); ++i) {
      EXPECT_EQ(remote.top_k[i].stats.score, local.top_k[i].stats.score);
      EXPECT_EQ(remote.top_k[i].stats.error_sum,
                local.top_k[i].stats.error_sum);
      EXPECT_EQ(remote.top_k[i].stats.size, local.top_k[i].stats.size);
      EXPECT_EQ(remote.top_k[i].predicates, local.top_k[i].predicates);
    }
    ASSERT_EQ(remote.levels.size(), local.levels.size());
    for (size_t i = 0; i < remote.levels.size(); ++i) {
      EXPECT_EQ(remote.levels[i].candidates, local.levels[i].candidates);
    }
  }

  std::vector<std::unique_ptr<WorkerProcess>> fleet_;
};

TEST_F(ChaosTest, FaultFreeFleetMatchesSingleNodeBitForBit) {
  ChaosInput input = MakeDyadicInput(101, 600, 5, 4);
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 15;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  StartFleet();
  DistFaultStats faults;
  auto remote = RunSliceLineRemote(input.x0, input.errors, config, Options(),
                                   nullptr, &faults);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_FALSE(faults.fallback_local);
  EXPECT_EQ(faults.workers_lost, 0);
  ExpectBitIdentical(*remote, *local);
}

TEST_F(ChaosTest, SigkilledWorkerAtLevelBoundaryPreservesTopK) {
  ChaosInput input = MakeDyadicInput(211, 600, 5, 4);
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 15;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  StartFleet();
  RemoteDistOptions options = Options();
  options.request_timeout_ms = 1000;
  auto eval = RemoteSliceEvaluator::Create(input.x0, input.errors, options);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  (*eval)->set_round_hook([&](int64_t round) {
    if (round == 1) fleet_[2]->Kill();  // SIGKILL at a level boundary
  });
  auto result = core::RunSliceLineWithBackend(**eval, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ((*eval)->faults().workers_lost, 1);
  EXPECT_GT((*eval)->faults().reshards, 0);
  EXPECT_FALSE((*eval)->faults().fallback_local);
  ExpectBitIdentical(*result, *local);
}

TEST_F(ChaosTest, SuspendedStragglerIsMaskedBySpeculation) {
  ChaosInput input = MakeDyadicInput(307, 600, 5, 4);
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 15;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  StartFleet();
  RemoteDistOptions options = Options();
  options.straggler_after_ms = 200;    // fast straggler detection
  options.request_timeout_ms = 10000;  // ... well before the hard timeout
  auto eval = RemoteSliceEvaluator::Create(input.x0, input.errors, options);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  (*eval)->set_round_hook([&](int64_t round) {
    if (round == 1) fleet_[1]->Suspend();  // SIGSTOP: wedged, not dead
  });
  auto result = core::RunSliceLineWithBackend(**eval, config);
  fleet_[1]->Resume();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT((*eval)->faults().stragglers, 0);
  EXPECT_GT((*eval)->faults().speculative_reexecutions, 0);
  EXPECT_FALSE((*eval)->faults().fallback_local);
  ExpectBitIdentical(*result, *local);
}

TEST_F(ChaosTest, StragglerFoundWhileEveryWorkerIsBusyGetsABackup) {
  ChaosInput input = MakeDyadicInput(307, 600, 5, 4);
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 15;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  StartFleet({}, /*workers=*/2);
  RemoteDistOptions options = Options();
  options.max_block_slices = 1 << 20;  // one block per shard
  options.straggler_after_ms = 20;
  options.request_timeout_ms = 10000;
  options.max_retries = 0;  // without a backup: one timeout, then a reshard
  auto eval = RemoteSliceEvaluator::Create(input.x0, input.errors, options);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();

  // Round 1: worker 0 is wedged for the whole round, worker 1 only until
  // both in-flight blocks are old enough to be stragglers. So both are
  // detected while no worker is idle; once worker 1 answers, it must take
  // a backup of worker 0's block instead of the round waiting for the
  // request timeout.
  using Clock = std::chrono::steady_clock;
  Clock::time_point round1_start;
  Clock::time_point round1_end;
  std::thread release;
  (*eval)->set_round_hook([&](int64_t round) {
    if (round == 1) {
      fleet_[0]->Suspend();
      fleet_[1]->Suspend();
      round1_start = Clock::now();
      release = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        fleet_[1]->Resume();
      });
    } else if (round == 2) {
      round1_end = Clock::now();
      fleet_[0]->Resume();
    }
  });
  auto result = core::RunSliceLineWithBackend(**eval, config);
  if (round1_end == Clock::time_point()) round1_end = Clock::now();
  if (release.joinable()) release.join();
  fleet_[0]->Resume();
  fleet_[1]->Resume();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(round1_start, Clock::time_point()) << "round 1 never ran";

  EXPECT_GE((*eval)->faults().stragglers, 2);
  EXPECT_GE((*eval)->faults().speculative_reexecutions, 1);
  const double round1_ms =
      std::chrono::duration<double, std::milli>(round1_end - round1_start)
          .count();
  EXPECT_LT(round1_ms, options.request_timeout_ms / 2);
  EXPECT_FALSE((*eval)->faults().fallback_local);
  ExpectBitIdentical(*result, *local);
}

TEST_F(ChaosTest, TransientConnectionDropsAreRetried) {
  ChaosInput input = MakeDyadicInput(401, 600, 5, 4);
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 15;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  // Every worker abruptly closes the connection on every 9th request.
  // Small eval blocks force enough requests per worker that the drop fires
  // repeatedly during the run.
  StartFleet({"--drop-every", "9"});
  RemoteDistOptions options = Options();
  options.request_timeout_ms = 1000;
  options.max_block_slices = 16;
  DistFaultStats faults;
  auto remote = RunSliceLineRemote(input.x0, input.errors, config, options,
                                   nullptr, &faults);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_GT(faults.transient_failures, 0);
  EXPECT_GT(faults.retries, 0);
  EXPECT_FALSE(faults.fallback_local);
  ExpectBitIdentical(*remote, *local);
}

TEST_F(ChaosTest, KilledAndRestartedWorkerReenlists) {
  ChaosInput input = MakeDyadicInput(503, 600, 5, 4);
  core::SliceLineConfig config;
  config.k = 6;
  config.min_support = 15;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  StartFleet();
  RemoteDistOptions options = Options();
  options.request_timeout_ms = 1000;
  auto eval = RemoteSliceEvaluator::Create(input.x0, input.errors, options);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  (*eval)->set_round_hook([&](int64_t round) {
    if (round == 1) {
      // SIGKILL, then a fresh process on the same port: the coordinator
      // must notice the new session and re-ship the shard.
      const int port = fleet_[3]->port();
      fleet_[3]->Kill();
      fleet_[3] = std::make_unique<WorkerProcess>();
      ASSERT_TRUE(fleet_[3]->Start(port));
    }
  });
  auto result = core::RunSliceLineWithBackend(**eval, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_FALSE((*eval)->faults().fallback_local);
  EXPECT_EQ((*eval)->alive_workers(), kWorkers);
  ExpectBitIdentical(*result, *local);
}

TEST_F(ChaosTest, LosingMostOfTheFleetDegradesGracefully) {
  ChaosInput input = MakeDyadicInput(601, 400, 4, 3);
  core::SliceLineConfig config;
  config.k = 4;
  config.min_support = 10;
  auto local = core::RunSliceLine(input.x0, input.errors, config);
  ASSERT_TRUE(local.ok());

  StartFleet();
  RemoteDistOptions options = Options();
  options.request_timeout_ms = 1000;
  options.max_lost_fraction = 0.5;
  auto eval = RemoteSliceEvaluator::Create(input.x0, input.errors, options);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  (*eval)->set_round_hook([&](int64_t round) {
    if (round == 1) {
      fleet_[0]->Kill();
      fleet_[1]->Kill();
      fleet_[2]->Kill();
    }
  });
  auto result = core::RunSliceLineWithBackend(**eval, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE((*eval)->faults().fallback_local);
  // The local fallback evaluates the full matrix: still bit-identical.
  ExpectBitIdentical(*result, *local);
}

}  // namespace
}  // namespace sliceline::dist
