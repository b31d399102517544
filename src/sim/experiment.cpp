#include "sim/experiment.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "sim/jsonlite.hpp"

namespace decentnet::sim {

namespace {

std::string format_double(double v, int precision) {
  if (!std::isfinite(v)) return "nan";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      static const char* hex = "0123456789abcdef";
      out += "\\u00";
      out += hex[(c >> 4) & 0xF];
      out += hex[c & 0xF];
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string Value::to_cell() const {
  switch (kind_) {
    case Kind::Null:
      return "-";
    case Kind::Bool:
      return u_ ? "true" : "false";
    case Kind::Int:
      return std::to_string(i_);
    case Kind::Uint:
      return std::to_string(u_);
    case Kind::Double:
      return format_double(d_, precision_);
    case Kind::Str:
      return s_;
  }
  return "-";
}

std::string Value::to_json() const {
  switch (kind_) {
    case Kind::Null:
      return "null";
    case Kind::Bool:
      return u_ ? "true" : "false";
    case Kind::Int:
      return std::to_string(i_);
    case Kind::Uint:
      return std::to_string(u_);
    case Kind::Double:
      return jsonlite::format_double(d_);
    case Kind::Str:
      return json_string(s_);
  }
  return "null";
}

bool ExperimentHarness::parse_cli(int argc, char* const* argv,
                                  ExperimentOptions& opts,
                                  std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto want_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        error = std::string(flag) + " requires a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = want_value("--seed");
      if (!v) return false;
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v, &end, 0);
      if (end == v || *end != '\0') {
        error = "--seed: not an integer: " + std::string(v);
        return false;
      }
      opts.seed = parsed;
    } else if (arg == "--json") {
      const char* v = want_value("--json");
      if (!v) return false;
      opts.json_path = v;
      opts.emit_json = true;
    } else if (arg == "--no-json") {
      opts.emit_json = false;
    } else if (arg == "--trace") {
      const char* v = want_value("--trace");
      if (!v) return false;
      opts.trace_path = v;
      opts.stream_trace = false;
    } else if (arg == "--stream-trace") {
      const char* v = want_value("--stream-trace");
      if (!v) return false;
      opts.trace_path = v;
      opts.stream_trace = true;
    } else if (arg == "--jobs") {
      const char* v = want_value("--jobs");
      if (!v) return false;
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || parsed == 0) {
        error = "--jobs: need a positive integer, got: " + std::string(v);
        return false;
      }
      opts.jobs = static_cast<std::size_t>(parsed);
    } else if (arg == "--sim-shards") {
      const char* v = want_value("--sim-shards");
      if (!v) return false;
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || parsed == 0) {
        error = "--sim-shards: need a positive integer, got: " +
                std::string(v);
        return false;
      }
      if (parsed > 1 && !opts.shard_aware) {
        error =
            "--sim-shards: this bench does not run on the sharded kernel "
            "(it would silently ignore the decomposition). Shard-aware "
            "benches: bench_e16_gossip, bench_e20_scale, "
            "bench_e22_transport, bench_ablate_kernel.";
        return false;
      }
      opts.sim_shards = static_cast<std::size_t>(parsed);
    } else if (arg == "--sim-threads") {
      const char* v = want_value("--sim-threads");
      if (!v) return false;
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || parsed == 0) {
        error = "--sim-threads: need a positive integer, got: " +
                std::string(v);
        return false;
      }
      if (parsed > 1 && !opts.shard_aware) {
        error =
            "--sim-threads: this bench does not run on the sharded kernel. "
            "Shard-aware benches: bench_e16_gossip, bench_e20_scale, "
            "bench_e22_transport, bench_ablate_kernel.";
        return false;
      }
      opts.sim_threads = static_cast<std::size_t>(parsed);
    } else if (arg == "--chaos-seeds") {
      const char* v = want_value("--chaos-seeds");
      if (!v) return false;
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || parsed == 0) {
        error = "--chaos-seeds: need a positive integer, got: " +
                std::string(v);
        return false;
      }
      if (!opts.chaos_aware) {
        error =
            "--chaos-seeds: this bench does not run the chaos engine. "
            "Chaos-aware benches: bench_e21_chaos.";
        return false;
      }
      opts.chaos_seeds = static_cast<std::size_t>(parsed);
    } else if (arg == "--chaos-space") {
      const char* v = want_value("--chaos-space");
      if (!v) return false;
      if (!opts.chaos_aware) {
        error =
            "--chaos-space: this bench does not run the chaos engine. "
            "Chaos-aware benches: bench_e21_chaos.";
        return false;
      }
      opts.chaos_space_path = v;
    } else if (arg == "--repro") {
      const char* v = want_value("--repro");
      if (!v) return false;
      if (!opts.chaos_aware) {
        error =
            "--repro: this bench does not run the chaos engine. "
            "Chaos-aware benches: bench_e21_chaos.";
        return false;
      }
      opts.repro_path = v;
    } else if (arg == "--telemetry" || arg.rfind("--telemetry=", 0) == 0) {
      // Attached-value form only (--telemetry=50ms): the bare flag must not
      // swallow a following positional and has a sensible default cadence.
      SimDuration interval = millis(100);
      if (arg.size() > std::strlen("--telemetry")) {
        const std::string v = arg.substr(std::strlen("--telemetry="));
        char* end = nullptr;
        const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
        const std::string suffix = end ? end : "";
        if (end == v.c_str() || parsed == 0) {
          error = "--telemetry: need a positive interval (e.g. 100ms, 2s, "
                  "500us), got: " + v;
          return false;
        }
        if (suffix.empty() || suffix == "ms") {
          interval = static_cast<SimDuration>(parsed) * kMillisecond;
        } else if (suffix == "us") {
          interval = static_cast<SimDuration>(parsed) * kMicrosecond;
        } else if (suffix == "s") {
          interval = static_cast<SimDuration>(parsed) * kSecond;
        } else {
          error = "--telemetry: unknown unit '" + suffix +
                  "' (use us, ms, or s)";
          return false;
        }
      }
      opts.telemetry_interval = interval;
    } else if (arg == "--telemetry-out") {
      const char* v = want_value("--telemetry-out");
      if (!v) return false;
      opts.telemetry_path = v;
    } else if (arg == "--param") {
      const char* v = want_value("--param");
      if (!v) return false;
      const std::string pair = v;
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        error = "--param: expected key=value, got: " + pair;
        return false;
      }
      opts.params.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    } else if (arg == "--profile") {
      opts.profile = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else {
      error = "unrecognized argument: " + arg;
      return false;
    }
  }
  return true;
}

std::string ExperimentHarness::usage(const std::string& prog,
                                     const std::string& id) {
  return "usage: " + prog +
         " [--seed N] [--json PATH] [--no-json] [--trace PATH] "
         "[--stream-trace PATH] [--profile] "
         "[--jobs N] [--sim-shards S] [--sim-threads N] "
         "[--chaos-seeds N] [--chaos-space FILE] [--repro FILE] "
         "[--telemetry[=INTERVAL]] [--telemetry-out PATH] "
         "[--param K=V] [--quiet]\n"
         "  --seed N      root seed (default: the bench's published seed)\n"
         "  --json PATH   result artifact path (default BENCH_" +
         id +
         ".json)\n"
         "  --no-json     skip the JSON artifact\n"
         "  --trace PATH  write kernel/net trace as JSONL to PATH\n"
         "  --stream-trace PATH  same trace, bounded memory: chunked\n"
         "                streaming writes (and per-shard disk spills under\n"
         "                --sim-shards); byte-identical to --trace\n"
         "  --profile     kernel self-profiler: per-tag wall time in the\n"
         "                JSON artifact under \"profile\"\n"
         "  --jobs N      worker threads for independent sweep points\n"
         "                (results are byte-identical for any N)\n"
         "  --sim-shards S  shard the kernel S ways (shard-aware benches;\n"
         "                S=1 is the legacy kernel bit-for-bit)\n"
         "  --sim-threads N worker threads inside one sharded kernel\n"
         "                (results are byte-identical for any N)\n"
         "  --chaos-seeds N  fuzz seeds per protocol (chaos-aware benches)\n"
         "  --chaos-space FILE  JSON ChaosSpace overriding the built-in\n"
         "                fault ranges (chaos-aware benches)\n"
         "  --repro FILE  replay one chaos repro envelope instead of\n"
         "                fuzzing (chaos-aware benches)\n"
         "  --telemetry[=INTERVAL]  sample sim-time gauges/rates every\n"
         "                INTERVAL of sim time (100ms default; units us, ms,\n"
         "                s) into a JSONL series stream; byte-identical at\n"
         "                any --sim-threads; analyze with\n"
         "                `decentnet-trace timeline`\n"
         "  --telemetry-out PATH  series stream path (default TELEMETRY_" +
         id +
         ".jsonl)\n"
         "  --param K=V   bench-specific knob (repeatable; e.g. max_n=1000)\n"
         "  --quiet       suppress banner and table\n";
}

ExperimentHarness::ExperimentHarness(std::string id, ExperimentOptions opts)
    : id_(std::move(id)), opts_(std::move(opts)) {
  if (!opts_.trace_path.empty()) {
    try {
      if (opts_.stream_trace) {
        trace_ = std::make_unique<StreamingTraceSink>(opts_.trace_path);
      } else {
        trace_ = std::make_unique<JsonlTraceSink>(opts_.trace_path);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(1);
    }
  }
  if (opts_.profile) {
    profiler_ = std::make_unique<Profiler>();
  }
  if (opts_.telemetry_interval > 0) {
    const std::string path = opts_.telemetry_path.empty()
                                 ? "TELEMETRY_" + id_ + ".jsonl"
                                 : opts_.telemetry_path;
    try {
      telemetry_sink_ = std::make_unique<SeriesSink>(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(1);
    }
    telemetry_ =
        std::make_unique<Telemetry>(*telemetry_sink_, opts_.telemetry_interval);
  }
}

ExperimentHarness::ExperimentHarness(std::string id, int argc,
                                     char* const* argv,
                                     ExperimentOptions defaults)
    // `id` is deliberately copied (not moved) into the delegated ctor: the
    // lambda below still reads it, and the two arguments are
    // indeterminately sequenced.
    : ExperimentHarness(id, [&] {
        const std::string prog = (argv && argc > 0) ? argv[0] : "bench";
        ExperimentOptions opts = std::move(defaults);
        std::string error;
        if (!parse_cli(argc, argv, opts, error)) {
          std::fprintf(stderr, "%s\n%s", error.c_str(),
                       usage(prog, id).c_str());
          std::exit(2);
        }
        if (opts.help) {
          std::fputs(usage(prog, id).c_str(), stdout);
          std::exit(0);
        }
        return opts;
      }()) {}

ExperimentHarness::~ExperimentHarness() {
  if (trace_) trace_->flush();
  if (telemetry_sink_) telemetry_sink_->flush();
}

const std::string* ExperimentHarness::cli_param(const std::string& key) const {
  const std::string* found = nullptr;
  for (const auto& [k, v] : opts_.params) {
    if (k == key) found = &v;
  }
  return found;
}

std::uint64_t ExperimentHarness::cli_param_u64(const std::string& key,
                                               std::uint64_t fallback) const {
  const std::string* v = cli_param(key);
  if (!v) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 0);
  if (end == v->c_str() || *end != '\0') {
    std::fprintf(stderr, "--param %s: not an integer: %s\n", key.c_str(),
                 v->c_str());
    std::exit(2);
  }
  return parsed;
}

std::uint64_t ExperimentHarness::seed_for(std::uint64_t index) const {
  std::uint64_t state = opts_.seed + 0x9E3779B97F4A7C15ull * (index + 1);
  return splitmix64(state);
}

void ExperimentHarness::describe(std::string title, std::string claim,
                                 std::string method) {
  title_ = std::move(title);
  claim_ = std::move(claim);
  method_ = std::move(method);
  if (opts_.quiet) return;
  std::printf(
      "\n================================================================\n");
  std::printf("%s\n", title_.c_str());
  if (!claim_.empty()) std::printf("Paper claim : %s\n", claim_.c_str());
  if (!method_.empty()) std::printf("This bench  : %s\n", method_.c_str());
  std::printf("Seed        : %llu\n",
              static_cast<unsigned long long>(opts_.seed));
  std::printf(
      "================================================================\n");
}

Simulator& ExperimentHarness::simulator() {
  if (!sim_) {
    sim_ = std::make_unique<Simulator>(opts_.seed);
    sim_->set_trace(trace_.get());
    sim_->set_profiler(profiler_.get());
    if (telemetry_) telemetry_->attach(*sim_);
  }
  return *sim_;
}

void ExperimentHarness::set_param(const std::string& key, Value v) {
  for (auto& [k, existing] : params_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  params_.emplace_back(key, std::move(v));
}

void ExperimentHarness::add_row(
    std::vector<std::pair<std::string, Value>> cells) {
  rows_.push_back(std::move(cells));
}

std::size_t ExperimentHarness::effective_jobs() const {
  // A single interleaved trace stream must stay deterministic, so tracing
  // pins execution to one worker. Telemetry writes one series stream the
  // same way.
  if (trace_ || telemetry_) return 1;
  return opts_.jobs == 0 ? 1 : opts_.jobs;
}

void ExperimentHarness::run_points(
    std::size_t count, const std::function<void(PointScope&)>& body) {
  if (count == 0) return;
  std::size_t jobs = effective_jobs();
  if (trace_ && opts_.jobs > 1 && !opts_.quiet) {
    std::fprintf(stderr,
                 "[%s] --trace forces --jobs 1 (deterministic trace)\n",
                 id_.c_str());
  }
  if (!trace_ && telemetry_ && opts_.jobs > 1 && !opts_.quiet) {
    std::fprintf(stderr,
                 "[%s] --telemetry forces --jobs 1 (deterministic series)\n",
                 id_.c_str());
  }
  if (jobs > count) jobs = count;

  // Scopes are pre-built so every point's seed derivation is fixed before
  // any work starts; deque keeps addresses stable for the workers.
  std::deque<PointScope> scopes;
  for (std::size_t i = 0; i < count; ++i) {
    scopes.emplace_back(PointScope(i, opts_.seed, seed_for(i), trace_.get(),
                                   trace_spill(), profiler_ != nullptr,
                                   telemetry_.get()));
  }

  if (jobs <= 1) {
    for (auto& scope : scopes) body(scope);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::size_t> failed_index(jobs, count);
    std::vector<std::exception_ptr> failure(jobs);
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      pool.emplace_back([&, w] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= count) return;
          try {
            body(scopes[i]);
          } catch (...) {
            // Remember the worker's first failure (lowest index wins at
            // rethrow time); keep draining so merge order stays defined.
            if (!failure[w]) {
              failure[w] = std::current_exception();
              failed_index[w] = i;
            }
          }
        }
      });
    }
    for (auto& t : pool) t.join();
    std::size_t best = count;
    std::exception_ptr first;
    for (std::size_t w = 0; w < jobs; ++w) {
      if (failure[w] && failed_index[w] < best) {
        best = failed_index[w];
        first = failure[w];
      }
    }
    if (first) std::rethrow_exception(first);
  }

  // Deterministic merge: submission (index) order, never completion order.
  for (auto& scope : scopes) {
    for (auto& row : scope.rows_) rows_.push_back(std::move(row));
    metrics_.merge_from(scope.metrics_);
    if (profiler_ && scope.profiler_) profiler_->merge_from(*scope.profiler_);
  }
}

std::string ExperimentHarness::to_json() const {
  // Column order: union of row keys, first-seen; timing cells excluded so
  // the artifact is deterministic in the seed.
  std::vector<std::string> columns;
  for (const auto& row : rows_) {
    for (const auto& [key, value] : row) {
      if (value.is_timing()) continue;
      bool seen = false;
      for (const auto& c : columns) {
        if (c == key) {
          seen = true;
          break;
        }
      }
      if (!seen) columns.push_back(key);
    }
  }

  std::string out = "{\n  \"id\": " + json_string(id_);
  if (!title_.empty()) out += ",\n  \"title\": " + json_string(title_);
  if (!claim_.empty()) out += ",\n  \"claim\": " + json_string(claim_);
  if (!method_.empty()) out += ",\n  \"method\": " + json_string(method_);
  out += ",\n  \"seed\": " + std::to_string(opts_.seed);
  if (!params_.empty()) {
    out += ",\n  \"params\": {";
    bool first = true;
    for (const auto& [key, value] : params_) {
      if (!first) out += ", ";
      first = false;
      out += json_string(key) + ": " + value.to_json();
    }
    out += "}";
  }
  out += ",\n  \"columns\": [";
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) out += ", ";
    out += json_string(columns[i]);
  }
  out += "],\n  \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += r ? ",\n    {" : "\n    {";
    bool first = true;
    for (const auto& [key, value] : rows_[r]) {
      if (value.is_timing()) continue;
      if (!first) out += ", ";
      first = false;
      out += json_string(key) + ": " + value.to_json();
    }
    out += "}";
  }
  out += rows_.empty() ? "]" : "\n  ]";
  const std::string metrics_json = metrics_.to_json();
  if (metrics_json != "{}") {
    out += ",\n  \"metrics\": " + metrics_json;
  }
  // Profiler output is wall-clock and therefore nondeterministic; it only
  // appears when --profile was given, so seed-determinism byte-compares
  // (which never pass --profile) are unaffected.
  if (profiler_ && !profiler_->empty()) {
    out += ",\n  \"profile\": " + profiler_->to_json();
  }
  out += "\n}\n";
  return out;
}

int ExperimentHarness::finish() {
  if (finished_) return 0;
  finished_ = true;

  if (!opts_.quiet && !rows_.empty()) {
    Table t(title_.empty() ? id_ : title_);
    std::vector<std::string> columns;
    for (const auto& row : rows_) {
      for (const auto& [key, value] : row) {
        (void)value;
        bool seen = false;
        for (const auto& c : columns) {
          if (c == key) {
            seen = true;
            break;
          }
        }
        if (!seen) columns.push_back(key);
      }
    }
    t.set_header(columns);
    for (const auto& row : rows_) {
      std::vector<std::string> cells;
      for (const auto& col : columns) {
        const Value* found = nullptr;
        for (const auto& [key, value] : row) {
          if (key == col) {
            found = &value;
            break;
          }
        }
        cells.push_back(found ? found->to_cell() : "-");
      }
      t.add_row(std::move(cells));
    }
    t.print();
  }

  if (opts_.emit_json) {
    const std::string path =
        opts_.json_path.empty() ? "BENCH_" + id_ + ".json" : opts_.json_path;
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << to_json();
    if (!opts_.quiet) std::printf("\n[results written to %s]\n", path.c_str());
  }
  if (trace_) trace_->flush();
  if (telemetry_sink_) {
    telemetry_sink_->flush();
    if (!opts_.quiet) {
      const std::string path = opts_.telemetry_path.empty()
                                   ? "TELEMETRY_" + id_ + ".jsonl"
                                   : opts_.telemetry_path;
      std::printf("[telemetry: %llu samples in %s]\n",
                  static_cast<unsigned long long>(
                      telemetry_sink_->records_written()),
                  path.c_str());
    }
  }
  return 0;
}

}  // namespace decentnet::sim
