// One run of one benchmark workload, reported as a single JSON line.
//
//   perfbench_plain  --workload NAME --seed N [--threads T]
//   perfbench_traced --workload NAME --seed N [--threads T] --series PATH
//   perfbench_plain  --calibrate
//
// perfbench/run.py runs these once per repetition, each in its own process,
// so peak RSS belongs to one workload run. total_s spans the whole workload,
// from the first object built to the last one destroyed. --calibrate times a
// fixed kernel instead (see calibrate()), in a process of its own so it
// cannot disturb a workload's heap.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
bool crypto_spans_linked();
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_{plain,traced} --workload "
               "{pow_mesh,raft_commit,overlay_churn} --seed N [--threads T] "
               "[--series PATH]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    usage((std::string(flag) + " needs a non-negative integer").c_str());
  }
  return v;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Seconds this machine takes, right now, for a fixed kernel shaped like the
/// simulator's inner loop: a binary heap of timestamps and a hash map. The
/// code is the benchmark's own, so it never changes with the library; run.py
/// divides wall times by it to cancel host contention, which on a shared
/// machine slows every process by up to 2x for minutes at a time.
double calibrate() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(1 << 18);
  for (std::uint64_t i = 0; i < 600'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push(x & 0xFFFFFFF);
    if (heap.size() > 200'000) {
      acc += heap.top();
      heap.pop();
    }
    const auto [it, fresh] = table.try_emplace(x >> 46, i);
    if (!fresh) acc += it->second++;
  }
  static volatile std::uint64_t sink;
  sink = acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--calibrate") {
    std::printf("{\"cal_s\":%.9g}\n", calibrate());
    return 0;
  }
  std::string workload;
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("every flag takes a value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = parse_u64("--seed", value);
      have_seed = true;
    } else if (arg == "--threads") {
      options.threads = parse_u64("--threads", value);
    } else if (arg == "--series") {
      options.series_path = value;
    } else {
      usage(("unknown flag " + std::string(arg)).c_str());
    }
  }
  if (workload.empty() || !have_seed) usage("--workload and --seed are required");
  const bool traced = perfbench::crypto_spans_linked();
  if (traced && options.series_path.empty()) {
    usage("perfbench_traced needs --series PATH for its telemetry");
  }

  try {
    perfbench::Tracer tracer(perfbench::workload_shards(workload));
    if (traced) options.tracer = &tracer;
    const auto start = std::chrono::steady_clock::now();
    const perfbench::Report rep = perfbench::run_workload(workload, options);
    const double total_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();

    std::printf(
        "{\"workload\":\"%s\",\"seed\":%" PRIu64
        ",\"traced\":%s,\"threads\":%zu,\"total_s\":%.9g,\"setup_s\":%.9g,"
        "\"run_s\":%.9g,\"peak_rss_mb\":%.6g,\"ops\":%" PRIu64
        ",\"ops_failed\":%" PRIu64 ",\"digest\":\"%016" PRIx64
        "\",\"violations\":[",
        workload.c_str(), options.seed, traced ? "true" : "false",
        options.threads, total_s, rep.setup_s, rep.run_s, peak_rss_mb(),
        rep.ops, rep.ops_failed, rep.digest);
    for (std::size_t i = 0; i < rep.violations.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ",",
                  json_escape(rep.violations[i]).c_str());
    }
    std::printf("],\"layer\":{");
    for (std::size_t i = 0; i < rep.layer.size(); ++i) {
      std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",",
                  rep.layer[i].first.c_str(), rep.layer[i].second);
    }
    std::printf("}}\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
