// decentnet-trace: offline analysis of JSONL traces produced by the
// harness's --trace flag (JsonlTraceSink format, see src/sim/trace.hpp).
//
//   decentnet-trace TRACE.jsonl [--summary] [--trees] [--top N]
//                   [--chrome OUT.json]
//   decentnet-trace timeline SERIES.jsonl [--trace TRACE.jsonl]
//                   [--csv OUT.csv] [--chrome OUT.json]
//
// With no selection flags both the per-kind summary and the propagation-tree
// table are printed. --chrome additionally writes a Chrome trace_event file
// for chrome://tracing / Perfetto.
//
// The timeline subcommand reads the telemetry series stream --telemetry
// writes (see src/sim/telemetry.hpp) and prints per-series statistics plus
// ramp detection; --trace correlates gauge excursions against the fault
// inject/heal windows of the matching event trace, --csv exports the raw
// samples, --chrome writes counter-track trace_event JSON.
//
// Exit status: 0 on success, 1 on bad usage, unreadable input, or a
// malformed trace.
#include <charconv>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "trace_analysis.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " TRACE.jsonl [--summary] [--trees] [--top N] [--chrome OUT.json]\n"
      << "       " << argv0
      << " timeline SERIES.jsonl [--trace TRACE.jsonl] [--csv OUT.csv]\n"
      << "                 [--chrome OUT.json]\n"
      << "  --summary        per-kind / per-tag record counts\n"
      << "  --trees          propagation-tree stats (needs span records)\n"
      << "  --top N          show the N largest trees, N >= 1 (default 10)\n"
      << "  --chrome FILE    write Chrome trace_event JSON to FILE\n"
      << "  --trace FILE     (timeline) correlate against fault windows\n"
      << "  --csv FILE       (timeline) export raw samples as CSV\n"
      << "With neither --summary nor --trees, both are printed.\n";
  return 1;
}

/// A positive decimal count: no sign, no trailing text, no overflow.
bool parse_count(const char* text, std::size_t& out) {
  const char* const end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && stop == end && out > 0;
}

int run_timeline(const char* argv0, int argc, char** argv) {
  std::string input;
  std::string trace_in;
  std::string csv_out;
  std::string chrome_out;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--trace") == 0) {
      if (++i >= argc) return usage(argv0);
      trace_in = argv[i];
    } else if (std::strcmp(arg, "--csv") == 0) {
      if (++i >= argc) return usage(argv0);
      csv_out = argv[i];
    } else if (std::strcmp(arg, "--chrome") == 0) {
      if (++i >= argc) return usage(argv0);
      chrome_out = argv[i];
    } else if (arg[0] == '-') {
      return usage(argv0);
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage(argv0);
    }
  }
  if (input.empty()) return usage(argv0);

  std::ifstream in(input);
  if (!in) {
    std::cerr << "decentnet-trace: cannot open " << input << "\n";
    return 1;
  }

  try {
    const auto samples = decentnet::tracetool::parse_series_jsonl(in);
    std::cout << decentnet::tracetool::timeline_text(
        decentnet::tracetool::timeline_stats(samples));
    if (!trace_in.empty()) {
      std::ifstream tin(trace_in);
      if (!tin) {
        std::cerr << "decentnet-trace: cannot open " << trace_in << "\n";
        return 1;
      }
      const auto records = decentnet::tracetool::parse_jsonl(tin);
      const std::string faults =
          decentnet::tracetool::timeline_fault_text(samples, records);
      if (!faults.empty()) std::cout << "\n" << faults;
      else std::cout << "\nfault windows: 0\n";
    }
    if (!csv_out.empty()) {
      std::ofstream out(csv_out);
      if (!out) {
        std::cerr << "decentnet-trace: cannot write " << csv_out << "\n";
        return 1;
      }
      out << decentnet::tracetool::timeline_csv(samples);
    }
    if (!chrome_out.empty()) {
      std::ofstream out(chrome_out);
      if (!out) {
        std::cerr << "decentnet-trace: cannot write " << chrome_out << "\n";
        return 1;
      }
      out << decentnet::tracetool::timeline_chrome_json(samples);
    }
  } catch (const std::exception& e) {
    std::cerr << "decentnet-trace: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "timeline") == 0) {
    return run_timeline(argv[0], argc - 2, argv + 2);
  }

  std::string input;
  std::string chrome_out;
  bool want_summary = false;
  bool want_trees = false;
  std::size_t top_n = 10;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--summary") == 0) {
      want_summary = true;
    } else if (std::strcmp(arg, "--trees") == 0) {
      want_trees = true;
    } else if (std::strcmp(arg, "--top") == 0) {
      if (++i >= argc || !parse_count(argv[i], top_n)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--chrome") == 0) {
      if (++i >= argc) return usage(argv[0]);
      chrome_out = argv[i];
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (input.empty()) return usage(argv[0]);
  if (!want_summary && !want_trees) {
    want_summary = true;
    want_trees = true;
  }

  std::ifstream in(input);
  if (!in) {
    std::cerr << "decentnet-trace: cannot open " << input << "\n";
    return 1;
  }

  try {
    const auto records = decentnet::tracetool::parse_jsonl(in);
    if (want_summary) {
      std::cout << decentnet::tracetool::summary_text(
          decentnet::tracetool::summarize(records));
    }
    if (want_trees || !chrome_out.empty()) {
      const auto trees = decentnet::tracetool::build_trees(records);
      if (want_trees) {
        if (want_summary) std::cout << "\n";
        std::cout << decentnet::tracetool::tree_stats_text(trees, top_n);
      }
      if (!chrome_out.empty()) {
        std::ofstream out(chrome_out);
        if (!out) {
          std::cerr << "decentnet-trace: cannot write " << chrome_out << "\n";
          return 1;
        }
        out << decentnet::tracetool::chrome_trace_json(trees);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "decentnet-trace: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
