// decentnet-trace analysis library tests: JSONL parsing (including the
// writer's omitted-default-fields convention), propagation-tree
// reconstruction from span records, and byte-pinned text/Chrome outputs on a
// hand-written fixture.
//
// The fixture is one virtual-root tree (origin 7 fans out to 8 and 9; 8
// relays to 9 — a duplicated delivery — and to 10 — dropped by loss) plus a
// second simulator run appended to the same stream (time resets to zero),
// exercising segment detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "trace_analysis.hpp"

namespace tt = decentnet::tracetool;

namespace {

const char* kFixture = R"({"t":0,"kind":"span","tag":"root","id":1,"a":1}
{"t":0,"kind":"send","id":1,"a":7,"b":8,"bytes":100}
{"t":0,"kind":"span","id":2,"a":1,"b":1,"bytes":1}
{"t":0,"kind":"sched","tag":"net/deliver","id":10,"a":50}
{"t":0,"kind":"send","id":2,"a":7,"b":9,"bytes":100}
{"t":0,"kind":"span","id":3,"a":1,"b":1,"bytes":1}
{"t":0,"kind":"sched","tag":"net/deliver","id":11,"a":80}
{"t":50,"kind":"fire","id":10}
{"t":50,"kind":"send","id":3,"a":8,"b":9,"bytes":100}
{"t":50,"kind":"span","id":4,"a":1,"b":2,"bytes":2,"queue_us":25}
{"t":50,"kind":"dup","id":3,"a":8,"b":9,"bytes":100}
{"t":50,"kind":"sched","tag":"net/deliver","id":12,"a":160}
{"t":50,"kind":"sched","tag":"net/deliver","id":13,"a":120}
{"t":50,"kind":"send","id":4,"a":8,"b":10,"bytes":100}
{"t":50,"kind":"span","id":5,"a":1,"b":2,"bytes":2}
{"t":50,"kind":"drop","tag":"loss","id":4,"a":8,"b":10,"bytes":100}
{"t":0,"kind":"send","id":1,"a":3,"b":4,"bytes":50}
{"t":0,"kind":"span","id":1,"a":1}
{"t":0,"kind":"sched","tag":"net/deliver","id":1,"a":30}
)";

std::vector<tt::Record> parse_fixture() {
  std::istringstream in(kFixture);
  return tt::parse_jsonl(in);
}

}  // namespace

TEST(TraceTool, ParsesRecordsAndOmittedDefaults) {
  const auto recs = parse_fixture();
  ASSERT_EQ(recs.size(), 19u);
  EXPECT_EQ(recs[0].kind, "span");
  EXPECT_EQ(recs[0].tag, "root");
  EXPECT_EQ(recs[0].id, 1u);
  EXPECT_EQ(recs[0].a, 1u);
  // Omitted fields come back as defaults.
  EXPECT_EQ(recs[0].b, 0u);
  EXPECT_EQ(recs[0].bytes, 0u);
  EXPECT_EQ(recs[7].kind, "fire");
  EXPECT_EQ(recs[7].t, 50);
}

TEST(TraceTool, ParsesEscapesSkipsBlanksRejectsGarbage) {
  {
    std::istringstream in(
        "{\"t\":1,\"kind\":\"send\",\"tag\":\"a\\\"b\\\\c\\u0041\",\"id\":2}\n"
        "\n"
        "   \n");
    const auto recs = tt::parse_jsonl(in);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].tag, "a\"b\\cA");
  }
  {
    std::istringstream in("{\"t\":1,\"kind\":\"send\"\n");
    EXPECT_THROW(tt::parse_jsonl(in), std::runtime_error);
  }
  {
    std::istringstream in("not json\n");
    EXPECT_THROW(tt::parse_jsonl(in), std::runtime_error);
  }
  // Integers at the edge of their field parse exactly; one past it throws
  // instead of wrapping (id) or turning negative (t).
  {
    std::istringstream in(
        "{\"t\":9223372036854775807,\"kind\":\"send\","
        "\"id\":18446744073709551615}\n");
    const auto recs = tt::parse_jsonl(in);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].t, INT64_MAX);
    EXPECT_EQ(recs[0].id, UINT64_MAX);
  }
  for (const char* line :
       {"{\"t\":1,\"kind\":\"send\",\"id\":18446744073709551616}\n",
        "{\"t\":99999999999999999999999,\"kind\":\"send\"}\n",
        "{\"t\":9223372036854775808,\"kind\":\"send\"}\n",
        "{\"t\":18446744073709551615,\"kind\":\"send\"}\n"}) {
    std::istringstream in(line);
    EXPECT_THROW(tt::parse_jsonl(in), std::runtime_error) << line;
  }
}

TEST(TraceTool, SummaryTextIsPinned) {
  const auto s = tt::summarize(parse_fixture());
  EXPECT_EQ(tt::summary_text(s),
            "records: 19\n"
            "time_span_us: [0, 50]\n"
            "by kind:\n"
            "  drop                 1\n"
            "  dup                  1\n"
            "  fire                 1\n"
            "  sched                5\n"
            "  send                 5\n"
            "  span                 6\n"
            "by kind/tag:\n"
            "  drop/loss                              1\n"
            "  sched/net/deliver                      5\n"
            "  span/root                              1\n");
}

TEST(TraceTool, BuildsTreesAcrossSegments) {
  const auto trees = tt::build_trees(parse_fixture());
  ASSERT_EQ(trees.size(), 2u);

  // Segment 0: the virtual-root tree. Origin 7 covers itself at t0=0, node 8
  // at 50, node 9 at 80 (the relayed copy arriving at 120 loses the min);
  // the hop to 10 was dropped pre-schedule.
  const tt::Tree& t0 = trees[0];
  EXPECT_EQ(t0.segment, 0u);
  EXPECT_EQ(t0.root, 1u);
  EXPECT_TRUE(t0.root_node_known);
  EXPECT_EQ(t0.root_node, 7u);
  EXPECT_EQ(t0.edges, 4u);
  EXPECT_EQ(t0.delivered, 3u);
  EXPECT_EQ(t0.dropped, 1u);
  EXPECT_EQ(t0.covered, 3u);
  EXPECT_EQ(t0.depth_max, 2u);
  EXPECT_EQ(t0.fanout_max, 2u);
  EXPECT_EQ(t0.queue_max_us, 25u);
  EXPECT_EQ(t0.t90, 80);
  EXPECT_EQ(t0.t100, 80);
  // The duplicated delivery schedules two net/deliver events; arrival is
  // the earlier one.
  bool found_relay = false;
  for (const auto& h : t0.hops) {
    if (h.id == 4) {
      found_relay = true;
      EXPECT_EQ(h.arrive_t, 120);
      EXPECT_EQ(h.msg_seq, 3u);
      EXPECT_EQ(h.queue_us, 25u);  // sender-queue wait rides on the span
    }
    if (h.id == 5) {
      EXPECT_TRUE(h.dropped);
      EXPECT_EQ(h.arrive_t, -1);
    }
  }
  EXPECT_TRUE(found_relay);

  // Segment 1: a real-root single-hop tree (fresh simulator, time reset).
  const tt::Tree& t1 = trees[1];
  EXPECT_EQ(t1.segment, 1u);
  EXPECT_EQ(t1.root, 1u);
  EXPECT_EQ(t1.root_node, 3u);
  EXPECT_EQ(t1.edges, 1u);
  EXPECT_EQ(t1.covered, 2u);
  EXPECT_EQ(t1.t90, 30);
  EXPECT_EQ(t1.t100, 30);
}

TEST(TraceTool, TreeStatsTextIsPinned) {
  const auto trees = tt::build_trees(parse_fixture());
  EXPECT_EQ(
      tt::tree_stats_text(trees, 10),
      "trees: 2 (showing 2, by edges)\n"
      " seg    root    origin   edges delivered dropped covered depth"
      " fanout   qmax_us    t90_us   t100_us\n"
      "   0       1         7       4         3       1       3     2"
      "      2        25        80        80\n"
      "   1       1         3       1         1       0       2     0"
      "      0         0        30        30\n");
}

TEST(TraceTool, ChromeTraceJsonIsPinned) {
  const auto trees = tt::build_trees(parse_fixture());
  EXPECT_EQ(
      tt::chrome_trace_json(trees),
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":"
      "\"seg 0 tree 1 origin node 7\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":50,\"name\":"
      "\"7->8\",\"cat\":\"span\",\"args\":{\"hop\":2,\"parent\":1,\"seq\":1,"
      "\"bytes\":100,\"queue_us\":0,\"dropped\":0}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":80,\"name\":"
      "\"7->9\",\"cat\":\"span\",\"args\":{\"hop\":3,\"parent\":1,\"seq\":2,"
      "\"bytes\":100,\"queue_us\":0,\"dropped\":0}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":50,\"dur\":70,\"name\":"
      "\"8->9\",\"cat\":\"span\",\"args\":{\"hop\":4,\"parent\":2,\"seq\":3,"
      "\"bytes\":100,\"queue_us\":25,\"dropped\":0}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":50,\"dur\":0,\"name\":"
      "\"8->10\",\"cat\":\"span\",\"args\":{\"hop\":5,\"parent\":2,\"seq\":4,"
      "\"bytes\":100,\"queue_us\":0,\"dropped\":1}},\n"
      "{\"ph\":\"M\",\"pid\":100000001,\"name\":\"process_name\",\"args\":{"
      "\"name\":\"seg 1 tree 1 origin node 3\"}},\n"
      "{\"ph\":\"X\",\"pid\":100000001,\"tid\":0,\"ts\":0,\"dur\":30,"
      "\"name\":\"3->4\",\"cat\":\"span\",\"args\":{\"hop\":1,\"parent\":0,"
      "\"seq\":1,\"bytes\":50,\"queue_us\":0,\"dropped\":0}}\n"
      "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(TraceTool, TopNLimitsTable) {
  const auto trees = tt::build_trees(parse_fixture());
  const std::string one = tt::tree_stats_text(trees, 1);
  EXPECT_NE(one.find("trees: 2 (showing 1, by edges)"), std::string::npos);
  EXPECT_NE(one.find("      80"), std::string::npos);
  EXPECT_EQ(one.find("      30"), std::string::npos);
}
