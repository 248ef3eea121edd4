// serve-mixed: an in-process serve::Server (shipped defaults, 2 workers)
// driven by closed-loop serve::Client connections over loopback TCP. Each
// client deals its ops from shuffled decks of five: two finds that repeat
// one of the hot configs (cache hits), two finds with a config never
// requested before (misses that run a job), and one 100-row append to the
// row-windowed, watched `stream` dataset.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/sliceline.h"
#include "data/generators/generators.h"
#include "json_text.h"
#include "record.h"
#include "serve/client.h"
#include "serve/dataset_registry.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace sl = sliceline;
namespace serve = sliceline::serve;

namespace {

constexpr int64_t kCensusRows = 24583;
constexpr int64_t kStreamBaseRows = 24583;
constexpr int64_t kStreamPoolRows = 8000;
constexpr int64_t kAppendRows = 100;
constexpr int64_t kWatchWindowRows = 5000;
constexpr int kClients = 3;
constexpr int kServerWorkers = 2;
constexpr int kHotConfigs = 8;
constexpr int kMaxLevel = 2;
constexpr int kReferenceThreads = 4;
const char kDeck[] = "HHMMA";  // hit, hit, miss, miss, append

serve::FindSlicesRequest FindRequest(const std::string& dataset,
                                     double alpha) {
  serve::FindSlicesRequest request;
  request.dataset = dataset;
  request.k = 4;
  request.alpha = alpha;
  request.max_level = kMaxLevel;
  return request;
}

serve::FindSlicesRequest HotRequest(int h) {
  return FindRequest("census", 0.95 - 0.005 * h);
}

/// A config no client has requested before: alpha is drawn from a range
/// that contains no hot alpha at the drawn precision with probability 1.
serve::FindSlicesRequest MissRequest(sl::Rng* rng) {
  return FindRequest("census", 0.9301 + 0.0398 * rng->NextDouble());
}

sl::core::SliceLineConfig ConfigOf(const serve::FindSlicesRequest& request,
                                   bool parallel) {
  sl::core::SliceLineConfig config;
  config.k = static_cast<int>(request.k);
  config.alpha = request.alpha;
  config.min_support = request.sigma;
  config.max_level = static_cast<int>(request.max_level);
  config.parallel = parallel;
  return config;
}

/// Writes rows [0, rows) as categorical "v<code>" cells plus the numeric
/// label column "target".
bool WriteCsv(const std::string& path, const sl::data::EncodedDataset& ds,
              int64_t rows) {
  std::ofstream out(path);
  for (int64_t j = 0; j < ds.m(); ++j) out << 'f' << j << ',';
  out << "target\n";
  for (int64_t i = 0; i < rows; ++i) {
    const int32_t* row = ds.x0.row(i);
    for (int64_t j = 0; j < ds.m(); ++j) out << 'v' << row[j] << ',';
    out << JsonNumber(ds.y[i]) << '\n';
  }
  return static_cast<bool>(out);
}

serve::RegisterDatasetRequest RegisterRequest(const std::string& name,
                                              const std::string& path) {
  serve::RegisterDatasetRequest request;
  request.name = name;
  request.csv_path = path;
  request.label = "target";
  request.task = "reg";
  return request;
}

/// Inputs derived from the seed: the two CSVs plus the pool of rows the
/// appends cycle through (only rows whose every category the base CSV
/// has, since the server's dictionary is frozen at registration).
struct Inputs {
  std::string census_csv;
  std::string stream_csv;
  std::vector<std::vector<std::string>> pool_cells;
  std::vector<double> pool_errors;
};

sl::Status MakeInputs(const Args& args, Inputs* inputs) {
  sl::data::DatasetOptions census_options;
  census_options.rows = kCensusRows;
  census_options.seed = args.seed;
  const sl::data::EncodedDataset census =
      sl::data::MakeUsCensus(census_options);
  sl::data::DatasetOptions stream_options;
  stream_options.rows = kStreamBaseRows + kStreamPoolRows;
  stream_options.seed = args.seed + 0x9e3779b97f4a7c15ULL;
  const sl::data::EncodedDataset stream =
      sl::data::MakeUsCensus(stream_options);

  inputs->census_csv = args.workdir + "/census.csv";
  inputs->stream_csv = args.workdir + "/stream.csv";
  if (!WriteCsv(inputs->census_csv, census, census.n()) ||
      !WriteCsv(inputs->stream_csv, stream, kStreamBaseRows)) {
    return sl::Status::IoError("cannot write CSVs under " + args.workdir);
  }

  std::vector<std::set<int32_t>> seen(static_cast<size_t>(stream.m()));
  for (int64_t i = 0; i < kStreamBaseRows; ++i) {
    for (int64_t j = 0; j < stream.m(); ++j) seen[j].insert(stream.x0.At(i, j));
  }
  inputs->pool_cells.clear();
  inputs->pool_errors.clear();
  for (int64_t i = kStreamBaseRows; i < stream.n(); ++i) {
    std::vector<std::string> cells;
    bool known = true;
    for (int64_t j = 0; j < stream.m() && known; ++j) {
      known = seen[j].count(stream.x0.At(i, j)) > 0;
      cells.push_back("v" + std::to_string(stream.x0.At(i, j)));
    }
    if (!known) continue;
    inputs->pool_cells.push_back(std::move(cells));
    inputs->pool_errors.push_back(stream.errors[i]);
  }
  if (static_cast<int64_t>(inputs->pool_cells.size()) < kAppendRows) {
    return sl::Status::Internal("append pool too small");
  }
  return sl::Status::OK();
}

/// Rows and errors of append batch `b`, cycling through the pool.
void AppendBatch(const Inputs& inputs, int64_t b,
                 std::vector<std::vector<std::string>>* rows,
                 std::vector<double>* errors) {
  const int64_t pool = static_cast<int64_t>(inputs.pool_cells.size());
  rows->clear();
  errors->clear();
  for (int64_t r = 0; r < kAppendRows; ++r) {
    const int64_t i = (b * kAppendRows + r) % pool;
    rows->push_back(inputs.pool_cells[i]);
    errors->push_back(inputs.pool_errors[i]);
  }
}

/// A started server and the data hashes its registrations reported.
struct Daemon {
  std::unique_ptr<serve::Server> server;
  std::string census_hash;
  std::string stream_hash;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }
  void Stop() {
    if (server == nullptr) return;
    server->RequestShutdown();
    server->Wait();
    server.reset();
  }
};

sl::Status StartDaemon(const Inputs& inputs, Daemon* daemon) {
  serve::ServerOptions options;
  options.tcp_port = 0;
  options.workers = kServerWorkers;
  daemon->server = std::make_unique<serve::Server>(options);
  SLICELINE_RETURN_NOT_OK(daemon->server->Start());
  SLICELINE_ASSIGN_OR_RETURN(
      serve::Client client,
      serve::Client::Connect(serve::Endpoint::Tcp(daemon->server->tcp_port())));
  SLICELINE_ASSIGN_OR_RETURN(
      sl::obs::JsonValue census,
      client.RegisterDataset(RegisterRequest("census", inputs.census_csv)));
  SLICELINE_ASSIGN_OR_RETURN(
      sl::obs::JsonValue stream,
      client.RegisterDataset(RegisterRequest("stream", inputs.stream_csv)));
  SLICELINE_ASSIGN_OR_RETURN(daemon->census_hash,
                             census.RequireString("data_hash"));
  SLICELINE_ASSIGN_OR_RETURN(daemon->stream_hash,
                             stream.RequireString("data_hash"));
  serve::WatchRequest watch;
  watch.dataset = "stream";
  watch.tau = 1.5;
  watch.hysteresis = 0.1;
  watch.window_rows = kWatchWindowRows;
  watch.max_level = kMaxLevel;
  SLICELINE_RETURN_NOT_OK(client.Watch(watch).status());
  // Warm-up: fill the result cache with the hot configs.
  for (int h = 0; h < kHotConfigs; ++h) {
    SLICELINE_RETURN_NOT_OK(client.FindSlices(HotRequest(h)).status());
  }
  return sl::Status::OK();
}

/// One op as a client issued it, kept until the post-run checks.
struct ClientOp {
  Op op;
  char deck = 'M';
  serve::FindSlicesRequest request;
  std::optional<serve::FindSlicesReply> reply;
  int hot = -1;
  int64_t batch = -1;
  int64_t version = -1;
  int64_t n_after = -1;
  int64_t invalidated = 0;
  int64_t rows_appended = 0;
  size_t reply_bytes = 0;
  bool rejected = false;
  std::string error;
};

void ClientLoop(const Args& args, int client_index, int port,
                const Inputs& inputs, int64_t deadline,
                const std::vector<sl::core::SliceLineResult>& hot_refs,
                Recorder* rec, std::atomic<int64_t>* next_batch,
                std::vector<ClientOp>* out) {
  auto connected = serve::Client::Connect(serve::Endpoint::Tcp(port));
  if (!connected.ok()) {
    rec->AddCheck(false, "connect: " + connected.status().ToString());
    return;
  }
  serve::Client client = std::move(connected).value();
  sl::Rng rng(args.seed * 7919 + static_cast<uint64_t>(client_index) + 1);
  std::string deck;
  std::vector<std::vector<std::string>> rows;
  std::vector<double> errors;
  for (int64_t i = 0; NowNs() < deadline; ++i) {
    if (deck.empty()) {
      deck = kDeck;
      for (size_t k = deck.size() - 1; k > 0; --k) {
        std::swap(deck[k], deck[rng.NextUint64(k + 1)]);
      }
    }
    ClientOp c;
    c.deck = deck.back();
    deck.pop_back();
    c.op.id = rec->NextOpId();
    c.op.client = client_index;
    c.op.traced = args.trace && i % 2 == 1;
    if (c.deck == 'A') {
      c.batch = next_batch->fetch_add(1);
      AppendBatch(inputs, c.batch, &rows, &errors);
      serve::AppendRowsRequest append;
      append.dataset = "stream";
      append.rows = rows;
      append.errors = errors;
      c.op.begin_ns = NowNs();
      auto reply = client.AppendRows(append);
      c.op.end_ns = NowNs();
      c.op.kind = "append";
      if (reply.ok()) {
        c.rows_appended = reply->GetIntOr("rows_appended", -1);
        c.version = reply->GetIntOr("version", -1);
        c.n_after = reply->GetIntOr("n", -1);
        c.invalidated = reply->GetIntOr("cache_invalidated", 0);
      } else {
        c.error = reply.status().ToString();
        c.rejected =
            reply.status().code() == sl::StatusCode::kResourceExhausted;
      }
    } else {
      if (c.deck == 'H') {
        c.hot = static_cast<int>(rng.NextUint64(kHotConfigs));
        c.request = HotRequest(c.hot);
      } else {
        c.request = MissRequest(&rng);
      }
      c.op.begin_ns = NowNs();
      auto reply = client.FindSlices(c.request);
      c.op.end_ns = NowNs();
      if (reply.ok()) {
        c.op.kind = reply->cache_hit ? "hit" : "find";
        c.reply = std::move(reply).value();
      } else {
        c.op.kind = "find";
        c.error = reply.status().ToString();
        c.rejected =
            reply.status().code() == sl::StatusCode::kResourceExhausted;
      }
      if (c.hot >= 0 && c.reply.has_value()) {
        const std::string diff =
            CompareTopK(c.reply->result, hot_refs[c.hot], true);
        if (!diff.empty()) c.error = "hot find vs reference: " + diff;
      }
    }
    c.reply_bytes = client.last_response_line().size();
    out->push_back(std::move(c));
  }
}

std::string StatsJson(const sl::obs::JsonValue& stats) {
  const sl::obs::JsonValue* cache = stats.Find("cache");
  const sl::obs::JsonValue* jobs = stats.Find("jobs");
  const sl::obs::JsonValue* stream = stats.Find("stream");
  std::ostringstream os;
  os << "{\"cache_hits\":" << (cache ? cache->GetIntOr("hits", 0) : 0)
     << ",\"cache_misses\":" << (cache ? cache->GetIntOr("misses", 0) : 0)
     << ",\"cache_invalidations\":"
     << (cache ? cache->GetIntOr("invalidations", 0) : 0)
     << ",\"jobs_completed\":" << (jobs ? jobs->GetIntOr("completed", 0) : 0)
     << ",\"jobs_rejected\":" << (jobs ? jobs->GetIntOr("rejected", 0) : 0)
     << ",\"appends_total\":"
     << (stream ? stream->GetIntOr("appends_total", 0) : 0) << '}';
  return os.str();
}

std::string WatchJson(const sl::obs::JsonValue& watch) {
  std::ostringstream os;
  os << "{\"evaluations\":" << watch.GetIntOr("evaluations", 0)
     << ",\"window_rebuilds\":" << watch.GetIntOr("window_rebuilds", 0)
     << ",\"alerts\":" << watch.GetIntOr("alerts_fired", 0)
     << ",\"total_rows\":" << watch.GetIntOr("total_rows", 0) << '}';
  return os.str();
}

}  // namespace

int RunServe(const Args& args, Recorder* rec) {
  // -- set-up, repeated so its median is steady; the last one is kept. --
  Inputs inputs;
  Daemon daemon;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    daemon.Stop();
    const int64_t begin = NowNs();
    sl::Status made = MakeInputs(args, &inputs);
    if (made.ok()) made = StartDaemon(inputs, &daemon);
    if (!made.ok()) return Fatal("setup: " + made.ToString());
    rec->AddSetupSample((NowNs() - begin) * 1e-9);
  }
  const int port = daemon.server->tcp_port();

  // References come from a registry built from the same CSVs.
  serve::DatasetRegistry local;
  auto census = local.Register(RegisterRequest("census", inputs.census_csv));
  auto stream = local.Register(RegisterRequest("stream", inputs.stream_csv));
  if (!census.ok() || !stream.ok()) return Fatal("reference registry");
  rec->AddCheck(std::to_string(census->dataset->data_hash) ==
                        daemon.census_hash &&
                    std::to_string(stream->dataset->data_hash) ==
                        daemon.stream_hash,
                "reference registry hashes differ from the server's");
  const sl::data::EncodedDataset& census_data = census->dataset->dataset;
  std::vector<sl::core::SliceLineResult> hot_refs;
  for (int h = 0; h < kHotConfigs; ++h) {
    auto ref = sl::core::RunSliceLine(census_data,
                                      ConfigOf(HotRequest(h), false));
    if (!ref.ok()) return Fatal("reference: " + ref.status().ToString());
    hot_refs.push_back(std::move(ref).value());
  }

  rec->Stamp("rows", static_cast<double>(census_data.n()));
  rec->Stamp("features", static_cast<double>(census_data.m()));
  rec->Stamp("onehot", static_cast<double>(census_data.OneHotWidth()));
  rec->Stamp("max_level", kMaxLevel);
  rec->Stamp("stream_base_rows", static_cast<double>(kStreamBaseRows));
  rec->Stamp("watch_window_rows", static_cast<double>(kWatchWindowRows));
  rec->Stamp("server_workers", kServerWorkers);
  rec->Stamp("clients", kClients);
  rec->Stamp("mix", "hit 40%, miss 40%, append 20% of 100 rows");

  std::string stats_before;
  std::string watch_before;
  {
    auto client = serve::Client::Connect(serve::Endpoint::Tcp(port));
    if (!client.ok()) return Fatal("connect: " + client.status().ToString());
    auto stats = client->ServerStats();
    auto watch = client->WatchStatus("stream");
    if (!stats.ok() || !watch.ok()) return Fatal("stats before run");
    stats_before = StatsJson(*stats);
    watch_before = WatchJson(*watch);
  }

  // -- timed closed loop over kClients connections. --
  std::atomic<int64_t> next_batch{0};
  std::vector<std::vector<ClientOp>> per_client(kClients);
  const int64_t window_begin = NowNs();
  const int64_t deadline =
      window_begin + static_cast<int64_t>(args.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          ClientLoop(args, c, port, inputs, deadline, hot_refs, rec,
                     &next_batch, &per_client[c]);
        } catch (const std::exception& e) {
          rec->AddCheck(false, std::string("client thread: ") + e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  rec->SetWindow(window_begin, NowNs());

  // -- after the timed work: server-side numbers, then every check. --
  auto client_or = serve::Client::Connect(serve::Endpoint::Tcp(port));
  if (!client_or.ok()) return Fatal("connect: " + client_or.status().ToString());
  serve::Client client = std::move(client_or).value();
  auto stats_after = client.ServerStats();
  auto watch_after = client.WatchStatus("stream");
  if (!stats_after.ok() || !watch_after.ok()) return Fatal("stats after run");

  // Each miss against a single-threaded reference of its config, several
  // references at a time.
  std::vector<ClientOp*> misses;
  for (std::vector<ClientOp>& ops : per_client) {
    for (ClientOp& c : ops) {
      if (c.error.empty() && c.deck == 'M' && c.reply.has_value()) {
        misses.push_back(&c);
      }
    }
  }
  {
    std::atomic<size_t> next{0};
    std::vector<std::thread> checkers;
    for (int t = 0; t < kReferenceThreads; ++t) {
      checkers.emplace_back([&] {
        for (size_t i = next++; i < misses.size(); i = next++) {
          ClientOp& c = *misses[i];
          try {
            auto ref = sl::core::RunSliceLine(census_data,
                                              ConfigOf(c.request, false));
            const std::string diff =
                ref.ok() ? CompareTopK(c.reply->result, *ref, true)
                         : ref.status().ToString();
            if (!diff.empty()) c.error = "miss vs reference: " + diff;
          } catch (const std::exception& e) {
            c.error = std::string("miss reference: ") + e.what();
          }
        }
      });
    }
    for (std::thread& t : checkers) t.join();
  }

  std::map<int64_t, int64_t> batch_of_version;
  for (std::vector<ClientOp>& ops : per_client) {
    for (ClientOp& c : ops) {
      if (c.error.empty() && c.deck == 'A') {
        if (c.rows_appended != kAppendRows ||
            c.n_after != kStreamBaseRows + kAppendRows * c.version ||
            !batch_of_version.emplace(c.version, c.batch).second) {
          c.error = "append reply inconsistent (version " +
                    std::to_string(c.version) + ")";
        }
      }
      c.op.ok = c.error.empty();
      if (!c.op.ok) rec->Fail(c.error);
      rec->AddOp(c.op);
      std::ostringstream counters;
      counters << "{\"reply_bytes\":" << c.reply_bytes
               << ",\"rejected\":" << (c.rejected ? 1 : 0)
               << ",\"rows_appended\":" << c.rows_appended
               << ",\"invalidated\":" << c.invalidated << '}';
      rec->AddCounters(c.op.id, counters.str());
      // Traced misses: server-side queue and run time, read after the
      // timed work, become child spans of the client-side find span.
      if (c.op.traced && c.op.kind == "find" && c.reply.has_value()) {
        auto status = client.GetStatus(c.reply->job_id);
        if (!status.ok()) continue;
        const int64_t queue_ns = static_cast<int64_t>(
            status->GetNumberOr("queued_seconds", 0.0) * 1e9);
        const int64_t run_ns = static_cast<int64_t>(
            status->GetNumberOr("run_seconds", 0.0) * 1e9);
        const int64_t find_span = rec->AddSpan(c.op.id, 0, "find", 0,
                                               c.op.begin_ns, c.op.end_ns);
        rec->AddSpan(c.op.id, find_span, "queue", 0, c.op.begin_ns,
                     c.op.begin_ns + queue_ns);
        rec->AddSpan(c.op.id, find_span, "run", 0, c.op.begin_ns + queue_ns,
                     c.op.begin_ns + queue_ns + run_ns);
      } else if (c.op.traced) {
        rec->AddSpan(c.op.id, 0, c.op.kind, 0, c.op.begin_ns, c.op.end_ns);
      }
    }
  }
  // Versions must be exactly 1..appends, each applied once.
  int64_t expected = 1;
  for (const auto& [version, batch] : batch_of_version) {
    if (version != expected++) {
      rec->AddCheck(false, "append versions are not 1..n");
      break;
    }
  }

  // One find on `stream` must equal a reference over the base plus every
  // appended batch, replayed in the order the server applied them.
  std::vector<std::vector<std::string>> rows;
  std::vector<double> errors;
  std::shared_ptr<const serve::RegisteredDataset> replayed = stream->dataset;
  for (const auto& [version, batch] : batch_of_version) {
    AppendBatch(inputs, batch, &rows, &errors);
    auto applied = local.AppendRows("stream", rows, errors);
    if (!applied.ok()) {
      rec->AddCheck(false, "replay append: " + applied.status().ToString());
      break;
    }
    replayed = applied->dataset;
  }
  const serve::FindSlicesRequest stream_find = FindRequest("stream", 0.95);
  auto served = client.FindSlices(stream_find);
  auto ref = sl::core::RunSliceLine(replayed->dataset,
                                    ConfigOf(stream_find, false));
  rec->AddCheck(served.ok() && ref.ok() &&
                    CompareTopK(served->result, *ref, true).empty(),
                "stream find after appends differs from the replayed "
                "reference");

  std::ostringstream extra;
  extra << "{\"stats_before\":" << stats_before
        << ",\"stats_after\":" << StatsJson(*stats_after)
        << ",\"watch_before\":" << watch_before
        << ",\"watch_after\":" << WatchJson(*watch_after)
        << ",\"designed_hit_share\":0.5}";
  rec->SetExtra(extra.str());
  return 0;
}

}  // namespace perfbench
