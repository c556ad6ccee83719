// The ordered-work engine: round-robin index ownership, shard-file
// round-tripping through the strict JSON reader, the core contract —
// merging N shard files is byte-identical to one single-process batch —
// and the one reader and merge against hostile shard files of both kinds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "flow/flow.hpp"
#include "stg/builders.hpp"
#include "util/rng.hpp"

namespace rtcad {
namespace {

TEST(Shard, IndicesAreRoundRobin) {
  EXPECT_EQ(shard_indices(7, 0, 3), (std::vector<std::size_t>{0, 3, 6}));
  EXPECT_EQ(shard_indices(7, 1, 3), (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(shard_indices(7, 2, 3), (std::vector<std::size_t>{2, 5}));
  EXPECT_EQ(shard_indices(2, 1, 8), (std::vector<std::size_t>{1}));
  EXPECT_EQ(shard_indices(0, 0, 4), std::vector<std::size_t>{});
  EXPECT_EQ(shard_indices(5, 0, 1),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

/// The tentpole contract: shard -> serialize -> parse -> merge -> render
/// reproduces the single-process batch JSON byte for byte.
TEST(Shard, MergeOfShardsIsByteIdenticalToSingleProcessBatch) {
  const std::vector<BatchSpec> corpus = builtin_corpus();
  const std::string reference = to_json(run_batch(corpus));
  for (std::size_t of : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    std::vector<ShardRun> shards;
    for (std::size_t i = 0; i < of; ++i)
      shards.push_back(
          parse_shard_json<BatchItemResult>(to_shard_json(run_shard(corpus, i, of))));
    EXPECT_EQ(to_json(merge_shards(shards)), reference) << "of=" << of;
  }
}

TEST(Shard, MergeToleratesShardFileOrder) {
  const std::vector<BatchSpec> corpus = builtin_corpus();
  const std::string reference = to_json(run_batch(corpus));
  std::vector<ShardRun> shards;
  for (std::size_t i : {std::size_t{2}, std::size_t{0}, std::size_t{1}})
    shards.push_back(run_shard(corpus, i, 3));
  EXPECT_EQ(to_json(merge_shards(shards)), reference);
}

TEST(Shard, MoreShardsThanItemsLeavesSomeEmpty) {
  std::vector<BatchSpec> corpus;
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  corpus.push_back(BatchSpec{"celement", celement_stg(), si, {}});
  corpus.push_back(BatchSpec{"toggle", toggle_stg(), si, {}});
  const std::string reference = to_json(run_batch(corpus));
  std::vector<ShardRun> shards;
  for (std::size_t i = 0; i < 4; ++i) {
    shards.push_back(run_shard(corpus, i, 4));
    if (i >= 2) {
      EXPECT_TRUE(shards.back().items.empty());
    }
  }
  EXPECT_EQ(to_json(merge_shards(shards)), reference);
}

TEST(Shard, EmptyCorpusRoundTrips) {
  const std::vector<BatchSpec> corpus;
  std::vector<ShardRun> shards;
  for (std::size_t i = 0; i < 2; ++i)
    shards.push_back(parse_shard_json<BatchItemResult>(to_shard_json(run_shard(corpus, i, 2))));
  EXPECT_EQ(to_json(merge_shards(shards)), to_json(run_batch(corpus)));
}

/// Diagnostics (failed items) and hostile strings must survive the
/// serialize/parse round trip byte-exactly.
TEST(Shard, RecordsRoundTripEscapesAndDiagnostics) {
  ShardRun run;
  run.shard = 0;
  run.of = 1;
  run.total = 2;
  BatchItemResult ok_item;
  ok_item.name = "quote\"back\\slash\nnewline\ttab\rcr\x01ctl";
  ok_item.ok = true;
  ok_item.states = 7;
  ok_item.states_reduced = 5;
  ok_item.state_signals_added = 1;
  ok_item.literals = 4;
  ok_item.transistors = 12;
  ok_item.constraints = 3;
  ok_item.stages.push_back(FlowStage{"reachability", "7 states, \"quoted\""});
  BatchItemResult bad_item;
  bad_item.name = "failing";
  bad_item.ok = false;
  bad_item.diagnostic =
      BatchDiagnostic{"spec", "message with \\ and \"quotes\"\nand newline"};
  run.items.push_back({0, ok_item});
  run.items.push_back({1, bad_item});

  const std::string json = to_shard_json(run);
  const ShardRun back = parse_shard_json<BatchItemResult>(json);
  ASSERT_EQ(back.items.size(), 2u);
  EXPECT_EQ(back.items[0].record.name, ok_item.name);
  EXPECT_EQ(back.items[0].record.stages[0].detail, "7 states, \"quoted\"");
  EXPECT_EQ(back.items[1].record.diagnostic.message,
            bad_item.diagnostic.message);
  // Byte-exactness, not just field equality: re-serialize and compare.
  EXPECT_EQ(to_shard_json(back), json);
}

std::string expect_merge_error(std::vector<ShardRun> shards) {
  try {
    merge_shards(shards);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Shard, MergeValidatesTheShardSet) {
  const std::vector<BatchSpec> corpus = builtin_corpus();
  std::vector<ShardRun> shards;
  for (std::size_t i = 0; i < 3; ++i)
    shards.push_back(run_shard(corpus, i, 3));

  EXPECT_NE(expect_merge_error({}).find("no shard files"),
            std::string::npos);
  EXPECT_NE(expect_merge_error({shards[0], shards[1]})
                .find("got 2 shard files"),
            std::string::npos);
  EXPECT_NE(expect_merge_error({shards[0], shards[1], shards[1]})
                .find("duplicate shard id"),
            std::string::npos);

  std::vector<ShardRun> corpus_mismatch = shards;
  corpus_mismatch[2].total += 1;
  EXPECT_NE(expect_merge_error(corpus_mismatch).find("corpus size"),
            std::string::npos);

  std::vector<ShardRun> of_mismatch = shards;
  of_mismatch[1].of = 4;
  EXPECT_NE(expect_merge_error(of_mismatch).find("\"of\""),
            std::string::npos);

  std::vector<ShardRun> stolen_index = shards;
  ASSERT_FALSE(stolen_index[1].items.empty());
  stolen_index[1].items[0].index += 1;  // now owned by shard 2
  EXPECT_NE(expect_merge_error(stolen_index).find("expected"),
            std::string::npos);

  std::vector<ShardRun> short_shard = shards;
  short_shard[0].items.pop_back();
  EXPECT_NE(expect_merge_error(short_shard).find("holds"),
            std::string::npos);
}

TEST(Shard, MergeRejectsShardsFromDifferentCorporaOrFlags) {
  // Same corpus SIZE and index ownership, but one shard was produced
  // under different flags: only the fingerprint can catch it.
  const std::vector<BatchSpec> corpus = builtin_corpus();
  std::vector<BatchSpec> capped = corpus;
  for (auto& item : capped) item.opts.sg.max_states = 4096;
  ASSERT_NE(corpus_fingerprint(corpus), corpus_fingerprint(capped));

  std::vector<ShardRun> shards;
  shards.push_back(run_shard(corpus, 0, 2));
  shards.push_back(run_shard(capped, 1, 2));
  const std::string err = expect_merge_error(shards);
  EXPECT_NE(err.find("fingerprint"), std::string::npos);
  EXPECT_NE(err.find("different corpus or flags"), std::string::npos);
}

TEST(Shard, FingerprintCoversNamesOrderModeAndCap) {
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  std::vector<BatchSpec> base;
  base.push_back(BatchSpec{"a", celement_stg(), si, {}});
  base.push_back(BatchSpec{"b", toggle_stg(), si, {}});
  const std::string ref = corpus_fingerprint(base);

  std::vector<BatchSpec> renamed = base;
  renamed[0].name = "c";
  EXPECT_NE(corpus_fingerprint(renamed), ref);

  std::vector<BatchSpec> reordered = {base[1], base[0]};
  EXPECT_NE(corpus_fingerprint(reordered), ref);

  std::vector<BatchSpec> remoded = base;
  remoded[1].opts.mode = FlowMode::kRelativeTiming;
  EXPECT_NE(corpus_fingerprint(remoded), ref);

  std::vector<BatchSpec> recapped = base;
  recapped[0].opts.sg.max_states = 17;
  EXPECT_NE(corpus_fingerprint(recapped), ref);

  // Thread settings are excluded by design: results are identical across
  // them, so shards may run at different mixtures.
  std::vector<BatchSpec> rethreaded = base;
  rethreaded[0].opts.sg.threads = 8;
  EXPECT_EQ(corpus_fingerprint(rethreaded), ref);
}

TEST(Shard, ParserRejectsMalformedInput) {
  // Plain JSON breakage, each with a position-bearing Error.
  EXPECT_THROW(parse_shard_json<BatchItemResult>(""), Error);
  EXPECT_THROW(parse_shard_json<BatchItemResult>("{"), Error);
  EXPECT_THROW(parse_shard_json<BatchItemResult>("{}{}"), Error);
  EXPECT_THROW(parse_shard_json<BatchItemResult>("{\"schema\": }"), Error);
  EXPECT_THROW(parse_shard_json<BatchItemResult>("{\"a\": \"\\q\"}"), Error);
  EXPECT_THROW(parse_shard_json<BatchItemResult>("{\"a\": 1, \"a\": 2}"), Error);
  // Structurally valid JSON that is not a shard file.
  EXPECT_THROW(parse_shard_json<BatchItemResult>("[]"), Error);
  EXPECT_THROW(parse_shard_json<BatchItemResult>("{}"), Error);
  EXPECT_THROW(parse_shard_json<BatchItemResult>(
                   "{\"schema\": 1, \"kind\": \"notashard\", \"shard\": 0, "
                   "\"of\": 1, \"corpus\": 0, \"items\": []}"),
               Error);
  EXPECT_THROW(parse_shard_json<BatchItemResult>(
                   "{\"schema\": 1, \"kind\": \"shard\", \"shard\": 3, "
                   "\"of\": 2, \"corpus\": 0, \"items\": []}"),
               Error);
  EXPECT_THROW(parse_shard_json<BatchItemResult>(
                   "{\"schema\": 1, \"kind\": \"shard\", \"shard\": 0, "
                   "\"of\": 1, \"corpus\": 0, \"items\": 7}"),
               Error);
}

TEST(Shard, ParserRejectsFutureSchemaVersions) {
  try {
    parse_shard_json<BatchItemResult>(
        "{\"schema\": 2, \"kind\": \"shard\", \"shard\": 0, \"of\": 1, "
        "\"corpus\": 0, \"items\": []}");
    FAIL() << "schema 2 accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported schema version 2"),
              std::string::npos);
  }
}

// --- crash-tolerant resume (run_shard with a partial) ----------------------

std::vector<BatchSpec> small_corpus() {
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  std::vector<BatchSpec> corpus;
  corpus.push_back(BatchSpec{"celement", celement_stg(), si, {}});
  corpus.push_back(BatchSpec{"toggle", toggle_stg(), si, {}});
  corpus.push_back(BatchSpec{"fifo_si", fifo_si_stg(), si, {}});
  corpus.push_back(BatchSpec{"call", call_stg(), si, {}});
  return corpus;
}

TEST(ShardResume, FreshResumeEqualsRunShard) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun fresh = run_shard(corpus, 0, 2);
  std::size_t calls = 0;
  const ShardRun resumed = run_shard(corpus, 0, 2, {}, nullptr, "",
                                     [&](std::size_t) { ++calls; });
  EXPECT_EQ(to_shard_json(resumed), to_shard_json(fresh));
  EXPECT_EQ(calls, fresh.items.size());
}

TEST(ShardResume, RecomputesOnlyTheMissingIndices) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun fresh = run_shard(corpus, 0, 1);
  ASSERT_EQ(fresh.items.size(), 4u);

  ShardRun partial = fresh;
  partial.items.erase(partial.items.begin() + 1);  // lose index 1
  partial.items.pop_back();                        // and index 3

  std::size_t computed = 0;
  const ShardRun resumed = run_shard(corpus, 0, 1, {}, &partial, "",
                                     [&](std::size_t n) { computed = n; });
  EXPECT_EQ(computed, 2u) << "only the two dropped items are recomputed";
  // Byte-identical to a fresh run, however the work was split.
  EXPECT_EQ(to_shard_json(resumed), to_shard_json(fresh));
}

TEST(ShardResume, CancelledRecordsAreRecomputedNotReused) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun fresh = run_shard(corpus, 1, 2);
  ASSERT_FALSE(fresh.items.empty());

  ShardRun partial = fresh;
  partial.items[0].record.ok = false;
  partial.items[0].record.diagnostic =
      BatchDiagnostic{"cancelled", "cancelled during reachability"};

  std::size_t computed = 0;
  const ShardRun resumed = run_shard(corpus, 1, 2, {}, &partial, "",
                                     [&](std::size_t n) { computed = n; });
  EXPECT_EQ(computed, 1u) << "the cancelled record is schedule noise";
  EXPECT_EQ(to_shard_json(resumed), to_shard_json(fresh));
}

std::string expect_resume_error(const std::vector<BatchSpec>& corpus,
                                std::size_t shard, std::size_t of,
                                const ShardRun& partial) {
  try {
    run_shard(corpus, shard, of, {}, &partial);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ShardResume, RejectsForeignPartials) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun good = run_shard(corpus, 0, 2);

  ShardRun wrong_shard = good;
  wrong_shard.shard = 1;
  EXPECT_NE(
      expect_resume_error(corpus, 0, 2, wrong_shard).find("expected"),
      std::string::npos);

  ShardRun wrong_of = good;
  wrong_of.of = 3;
  EXPECT_NE(expect_resume_error(corpus, 0, 2, wrong_of).find("expected"),
            std::string::npos);

  // Same shape, different flags: only the fingerprint can catch it.
  std::vector<BatchSpec> capped = corpus;
  for (auto& item : capped) item.opts.sg.max_states = 4096;
  EXPECT_NE(
      expect_resume_error(capped, 0, 2, good).find("fingerprint"),
      std::string::npos);

  ShardRun stolen = good;
  ASSERT_FALSE(stolen.items.empty());
  stolen.items[0].index += 1;  // index owned by shard 1
  EXPECT_NE(expect_resume_error(corpus, 0, 2, stolen).find("own"),
            std::string::npos);
}

TEST(ShardResume, CheckpointIsAValidShardFileAfterEveryItem) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const std::string path =
      std::filesystem::temp_directory_path() /
      "rtcad_resume_checkpoint_test.json";
  std::filesystem::remove(path);

  // At every completion the on-disk checkpoint must parse as a shard
  // file for this shard — that is exactly what a crashed process leaves
  // for the next --resume.
  std::size_t seen = 0;
  const ShardRun run = run_shard(
      corpus, 0, 1, {}, nullptr, path, [&](std::size_t n) {
        seen = n;
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        std::ostringstream text;
        text << in.rdbuf();
        const ShardRun snap = parse_shard_json<BatchItemResult>(text.str());
        EXPECT_EQ(snap.shard, 0u);
        EXPECT_EQ(snap.of, 1u);
        EXPECT_EQ(snap.items.size(), n);
      });
  EXPECT_EQ(seen, corpus.size());

  // The final checkpoint IS the complete shard file.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), to_shard_json(run));
  std::filesystem::remove(path);
}

TEST(ShardResume, ResumingACompletePartialComputesNothing) {
  const std::vector<BatchSpec> corpus = small_corpus();
  const ShardRun fresh = run_shard(corpus, 0, 1);
  std::size_t computed = 0;
  const ShardRun resumed = run_shard(corpus, 0, 1, {}, &fresh, "",
                                     [&](std::size_t n) { computed = n; });
  EXPECT_EQ(computed, 0u);
  EXPECT_EQ(to_shard_json(resumed), to_shard_json(fresh));
}

TEST(Shard, RunShardRespectsTheContext) {
  // A pre-cancelled context makes every item of every shard fail with the
  // "cancelled" kind — and the merge still reassembles cleanly.
  CancelToken token;
  token.request_cancel();
  FlowContext ctx;
  ctx.cancel = &token;
  std::vector<BatchSpec> corpus;
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  corpus.push_back(BatchSpec{"celement", celement_stg(), si, {}});
  corpus.push_back(BatchSpec{"toggle", toggle_stg(), si, {}});
  std::vector<ShardRun> shards;
  for (std::size_t i = 0; i < 2; ++i)
    shards.push_back(run_shard(corpus, i, 2, ctx));
  const BatchResult merged = merge_shards(shards);
  ASSERT_EQ(merged.items.size(), 2u);
  for (const auto& item : merged.items) {
    EXPECT_FALSE(item.ok);
    EXPECT_EQ(item.diagnostic.kind, "cancelled");
  }
}

TEST(Shard, MergeMemoryIsBoundedByTheItemsNotTheHeader) {
  // Headers claiming 10^15 records over an empty item list: the merge
  // must reject them before allocating anything sized by the claim.
  const std::string huge_batch =
      "{\"schema\": 1, \"kind\": \"shard\", \"shard\": 0, \"of\": 1, "
      "\"corpus\": 1000000000000000, \"fingerprint\": \"x\", \"ok\": 0, "
      "\"failed\": 0, \"items\": []}";
  const std::string huge_sweep =
      "{\"schema\": 1, \"kind\": \"sweep-shard\", \"shard\": 0, "
      "\"of\": 1, \"variants\": 1000000000000000, \"fingerprint\": \"x\", "
      "\"spec\": \"mmu\", \"mode\": \"rt\", \"nets\": 1, "
      "\"constraints\": 0, \"golden\": {\"cycles\": 1, \"ok\": true}, "
      "\"items\": []}";
  EXPECT_THROW(merge_shards({parse_shard_json<BatchItemResult>(huge_batch)}),
               Error);
  EXPECT_THROW(
      merge_sweep_shards({parse_shard_json<SweepOutcome>(huge_sweep)}),
      Error);
}

TEST(Shard, ReaderCapsNestingDepth) {
  try {
    parse_shard_json<BatchItemResult>(std::string(300000, '['));
    FAIL() << "300000 nested arrays accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos);
  }
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(parse_json(nested(64), "test JSON"));
  EXPECT_THROW(parse_json(nested(65), "test JSON"), Error);
}

/// Seeded mutation coverage for the one reader: byte flips, truncations
/// and splices of a valid batch shard file, sweep shard file and item
/// record must each parse (and then merge or be rejected) or throw
/// rtcad::Error — never crash or throw anything else.
TEST(Shard, SeededMutantsParseOrThrowError) {
  SweepShard sweep;
  sweep.total = 3;
  sweep.fingerprint = "00000000000000ab";
  sweep.header = SweepHeader{"mmu", "rt", 12, 2, 40, true};
  sweep.items.push_back({0, SweepOutcome{"fault", "net/1", true,
                                         "violation", 7}});
  sweep.items.push_back({1, SweepOutcome{"delay", "int=5:11 out=7:17 in=18:56",
                                         false, "breaks:1", 3}});
  sweep.items.push_back({2, SweepOutcome{"env", "seed=41 in=90:160", true,
                                         "conforms", 9}});
  const ShardRun batch = run_shard(small_corpus(), 0, 1);
  const std::vector<std::string> seeds = {
      to_shard_json(batch), to_shard_json(sweep),
      item_record_json(batch.items[0].record)};
  ASSERT_NO_THROW(merge_shards({parse_shard_json<BatchItemResult>(seeds[0])}));
  ASSERT_NO_THROW(
      merge_sweep_shards({parse_shard_json<SweepOutcome>(seeds[1])}));
  ASSERT_NO_THROW(parse_item_record_json(seeds[2]));

  const auto survives = [](const std::string& text) {
    try {
      merge_shards({parse_shard_json<BatchItemResult>(text)});
    } catch (const Error&) {
    }
    try {
      merge_sweep_shards({parse_shard_json<SweepOutcome>(text)});
    } catch (const Error&) {
    }
    try {
      parse_item_record_json(text);
    } catch (const Error&) {
    }
  };
  const std::string structural = "{}[]\",:0123456789-.e\\ntf";
  Rng rng(14);
  for (const std::string& seed : seeds) {
    for (int m = 0; m < 300; ++m) {
      std::string text = seed;
      const std::size_t pos = rng.below(text.size());
      switch (m % 3) {
        case 0:  // byte flip: a random bit, or a structural character
          if (rng.below(2))
            text[pos] = static_cast<char>(text[pos] ^ (1 << rng.below(8)));
          else
            text[pos] = structural[rng.below(structural.size())];
          break;
        case 1:  // truncation
          text.resize(pos);
          break;
        default: {  // splice: this seed's head onto any seed's tail
          const std::string& other = seeds[rng.below(seeds.size())];
          text = text.substr(0, pos) + other.substr(rng.below(other.size()));
        }
      }
      SCOPED_TRACE(text);
      survives(text);
    }
  }
}

}  // namespace
}  // namespace rtcad
