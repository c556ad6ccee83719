#include <gtest/gtest.h>

#include <fstream>

#include "flow/flow.hpp"
#include "generated_stgs.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

TEST(BatchFlow, BuiltinCorpusRunsClean) {
  const BatchResult r = run_batch(builtin_corpus());
  EXPECT_EQ(r.failed_count, 0);
  EXPECT_EQ(r.ok_count, static_cast<int>(r.items.size()));
  EXPECT_GE(r.items.size(), 10u);
}

TEST(BatchFlow, ResultsAreByteIdenticalAcrossThreadCounts) {
  const std::vector<BatchSpec> corpus = builtin_corpus();
  std::string reference;
  for (int threads : {1, 4, 8}) {
    FlowContext ctx;
    ctx.budget.corpus = threads;
    const std::string json = to_json(run_batch(corpus, ctx));
    if (reference.empty())
      reference = json;
    else
      EXPECT_EQ(json, reference) << "threads=" << threads;
  }
  EXPECT_FALSE(reference.empty());
}

TEST(BatchFlow, ItemsStayInCorpusOrder) {
  const std::vector<BatchSpec> corpus = builtin_corpus();
  FlowContext ctx;
  ctx.budget.corpus = 8;
  const BatchResult r = run_batch(corpus, ctx);
  ASSERT_EQ(r.items.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(r.items[i].name, corpus[i].name);
}

TEST(BatchFlow, StatsMatchDirectFlowRun) {
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  const FlowResult direct = run_flow(celement_stg(), si);

  std::vector<BatchSpec> corpus;
  corpus.push_back(BatchSpec{"celement", celement_stg(), si, {}});
  const BatchResult r = run_batch(corpus);
  ASSERT_EQ(r.items.size(), 1u);
  const BatchItemResult& item = r.items[0];
  ASSERT_TRUE(item.ok) << item.diagnostic.message;
  EXPECT_EQ(item.states, direct.states);
  EXPECT_EQ(item.literals, direct.literals());
  EXPECT_EQ(item.transistors, direct.netlist().transistor_count());
  EXPECT_EQ(item.stages.size(), direct.stages.size());
}

TEST(BatchFlow, StateOverflowIsPerSpecDiagnostic) {
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  FlowOptions capped = si;
  capped.sg.max_states = 16;  // pipeline_stg(6) has 128 states

  std::vector<BatchSpec> corpus;
  corpus.push_back(BatchSpec{"too_big", pipeline_stg(6), capped, {}});
  corpus.push_back(BatchSpec{"fits", celement_stg(), si, {}});

  const BatchResult r = run_batch(corpus);
  ASSERT_EQ(r.items.size(), 2u);
  EXPECT_FALSE(r.items[0].ok);
  EXPECT_EQ(r.items[0].diagnostic.kind, "spec");
  EXPECT_NE(r.items[0].diagnostic.message.find("exceeds"), std::string::npos);
  // The overflow must not poison the rest of the batch.
  EXPECT_TRUE(r.items[1].ok) << r.items[1].diagnostic.message;
  EXPECT_EQ(r.ok_count, 1);
  EXPECT_EQ(r.failed_count, 1);
}

TEST(BatchFlow, FlowOptionsCapAppliesToEncodeRebuilds) {
  // toggle (6 states) needs a state-signal insertion that grows the graph
  // to 8 states; capping at 7 passes the initial reachability but must make
  // the CSC solver's candidate rebuilds overflow, because they inherit
  // FlowOptions::sg.
  FlowOptions capped;
  capped.mode = FlowMode::kSpeedIndependent;
  capped.sg.max_states = 7;
  std::vector<BatchSpec> corpus;
  corpus.push_back(BatchSpec{"toggle", toggle_stg(), capped, {}});
  const BatchResult r = run_batch(corpus);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_FALSE(r.items[0].ok);
  EXPECT_EQ(r.items[0].diagnostic.kind, "spec");
}

TEST(BatchFlow, UnparsableFileBecomesParseDiagnostic) {
  const std::string good_path = ::testing::TempDir() + "/batch_good.g";
  const std::string bad_path = ::testing::TempDir() + "/batch_bad.g";
  {
    std::ofstream good(good_path);
    good << ".model hs\n.inputs req\n.outputs ack\n.graph\n"
            "req+ ack+\nack+ req-\nreq- ack-\nack- req+\n"
            ".marking { <ack-,req+> }\n.end\n";
    std::ofstream bad(bad_path);
    bad << ".model broken\n.graph\nthis is not an stg\n";
  }
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  const std::vector<BatchSpec> corpus =
      load_corpus_files({good_path, bad_path}, si);
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_FALSE(corpus[0].load_error.has_value());
  ASSERT_TRUE(corpus[1].load_error.has_value());

  const BatchResult r = run_batch(corpus);
  EXPECT_TRUE(r.items[0].ok) << r.items[0].diagnostic.message;
  EXPECT_FALSE(r.items[1].ok);
  EXPECT_EQ(r.items[1].diagnostic.kind, "parse");
}

TEST(BatchFlow, FileFailingValidationBecomesSpecDiagnostic) {
  // 65 signals parse fine but exceed a 64-bit state code: Stg::validate()
  // rejects the file with the kind the flow gives that spec built in code.
  const std::string path = ::testing::TempDir() + "/batch_wide65.g";
  {
    std::ofstream wide(path);
    wide << write_stg(wide_ring_stg(65));
  }
  const std::vector<BatchSpec> corpus = load_corpus_files({path});
  ASSERT_EQ(corpus.size(), 1u);
  ASSERT_TRUE(corpus[0].load_error.has_value());
  EXPECT_EQ(corpus[0].load_error->kind, "spec");
  EXPECT_NE(corpus[0].load_error->message.find("65 signals"),
            std::string::npos);
  const BatchResult r = run_batch(corpus);
  EXPECT_EQ(r.failed_count, 1);
  EXPECT_EQ(r.items[0].diagnostic.kind, "spec");
}

TEST(BatchFlow, RepeatedArcFileBecomesSpecDiagnostic) {
  // `p0 a+ a+` lists p0 twice in a+'s pre set. Before validate() rejected
  // it, firing a+ wrapped p0's count to 255 and the flow reported a
  // misleading "contradictory initial values".
  const std::string path = ::testing::TempDir() + "/batch_repeated_arc.g";
  {
    std::ofstream spec(path);
    spec << ".model rep\n.outputs a\n.graph\np0 a+ a+\na+ a-\na- p0\n"
            ".marking { p0 }\n.end\n";
  }
  const std::vector<BatchSpec> corpus = load_corpus_files({path});
  ASSERT_EQ(corpus.size(), 1u);
  ASSERT_TRUE(corpus[0].load_error.has_value());
  EXPECT_EQ(corpus[0].load_error->kind, "spec");
  EXPECT_EQ(corpus[0].load_error->message,
            "transition 'a+' lists place 'p0' twice in its pre set; arcs "
            "carry no weight");
  const BatchResult r = run_batch(corpus);
  EXPECT_EQ(r.failed_count, 1);
  EXPECT_EQ(r.items[0].diagnostic.kind, "spec");
}

TEST(BatchFlow, MissingFileBecomesParseDiagnosticVerbatim) {
  const std::string missing = ::testing::TempDir() + "/does_not_exist.g";
  const std::vector<BatchSpec> corpus = load_corpus_files({missing});
  ASSERT_EQ(corpus.size(), 1u);
  ASSERT_TRUE(corpus[0].load_error.has_value());
  EXPECT_EQ(corpus[0].load_error->kind, "parse");
  const std::string expected_msg = "cannot open STG file '" + missing + "'";
  EXPECT_EQ(corpus[0].load_error->message, expected_msg);

  // The load diagnostic must surface verbatim in the batch JSON.
  const BatchResult r = run_batch(corpus);
  EXPECT_EQ(r.failed_count, 1);
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"kind\": \"parse\""), std::string::npos);
  EXPECT_NE(json.find(expected_msg), std::string::npos);
}

TEST(BatchFlow, UnparsableFileDiagnosticSurfacesVerbatimInJson) {
  const std::string bad_path = ::testing::TempDir() + "/batch_garbled.g";
  {
    std::ofstream bad(bad_path);
    bad << ".model broken\n.graph\nthis is not an stg\n";
  }
  const std::vector<BatchSpec> corpus = load_corpus_files({bad_path});
  ASSERT_EQ(corpus.size(), 1u);
  ASSERT_TRUE(corpus[0].load_error.has_value());
  EXPECT_EQ(corpus[0].load_error->kind, "parse");
  // The parser reports file:line; both must reach the JSON untouched.
  EXPECT_NE(corpus[0].load_error->message.find(bad_path),
            std::string::npos);

  const BatchResult r = run_batch(corpus);
  EXPECT_FALSE(r.items[0].ok);
  EXPECT_NE(to_json(r).find(corpus[0].load_error->message),
            std::string::npos);
}

TEST(BatchFlow, EmptyCorpusYieldsEmptyCanonicalJson) {
  const BatchResult r = run_batch(std::vector<BatchSpec>{});
  EXPECT_EQ(r.ok_count, 0);
  EXPECT_EQ(r.failed_count, 0);
  EXPECT_TRUE(r.items.empty());
  EXPECT_EQ(to_json(r),
            "{\n  \"corpus\": 0,\n  \"ok\": 0,\n  \"failed\": 0,\n"
            "  \"items\": [\n  ]\n}\n");
}

TEST(BatchFlow, SharedCancelTokenCancelsTheWholeBatch) {
  CancelToken token;
  token.request_cancel();
  FlowContext ctx;
  ctx.cancel = &token;
  const BatchResult r = run_batch(builtin_corpus(), ctx);
  EXPECT_EQ(r.ok_count, 0);
  for (const auto& item : r.items) {
    EXPECT_FALSE(item.ok);
    EXPECT_EQ(item.diagnostic.kind, "cancelled");
    EXPECT_EQ(item.diagnostic.message, "cancelled during specification");
  }
}

TEST(BatchFlow, ContextBudgetOverridesAreByteIdentical) {
  const std::vector<BatchSpec> corpus = builtin_corpus();
  const std::string reference = to_json(run_batch(corpus));
  FlowContext ctx;
  ctx.budget.corpus = 4;
  ctx.budget.graph = 2;
  ctx.budget.candidate = 2;
  EXPECT_EQ(to_json(run_batch(corpus, ctx)), reference);
}

TEST(BatchFlow, JsonEscapesSpecialCharacters) {
  BatchResult r;
  BatchItemResult item;
  item.name = "quote\"back\\slash\nnewline";
  item.ok = false;
  item.diagnostic = BatchDiagnostic{"spec", "tab\there"};
  r.items.push_back(item);
  r.failed_count = 1;
  const std::string json = to_json(r);
  EXPECT_NE(json.find("quote\\\"back\\\\slash\\nnewline"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
}

TEST(BatchFlow, TimingsAreOptInAndOffByDefault) {
  std::vector<BatchSpec> corpus;
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  corpus.push_back(BatchSpec{"celement", celement_stg(), si, {}});
  const BatchResult r = run_batch(corpus);
  EXPECT_EQ(to_json(r).find("wall_ms"), std::string::npos);
  EXPECT_NE(to_json(r, true).find("wall_ms"), std::string::npos);
}

}  // namespace
}  // namespace rtcad
