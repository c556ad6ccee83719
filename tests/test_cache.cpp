// The content-addressed result cache: key sensitivity (spec bytes, result-
// shaping options, code-version stamp), hit-vs-fresh byte identity across
// the built-in corpus, loud rejection of damaged entries, the
// cancelled/load-error storage policy, and the cached_item() kernel under
// both run_batch_cached and the serve daemon (lookup order, stored-name
// check).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "flow/flow.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test store directory under the system temp dir.
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("rtcad_cache_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

BatchSpec celement_item() {
  FlowOptions si;
  si.mode = FlowMode::kSpeedIndependent;
  return BatchSpec{"celement", celement_stg(), si, {}};
}

TEST(CacheKey, IsDeterministic) {
  const BatchSpec a = celement_item();
  const BatchSpec b = celement_item();
  EXPECT_EQ(cache_key(a), cache_key(b));
  EXPECT_EQ(cache_key(a).size(), 64u) << "lowercase-hex SHA-256";
}

TEST(CacheKey, SensitiveToEveryResultShapingInput) {
  const BatchSpec base = celement_item();
  const std::string ref = cache_key(base);

  BatchSpec renamed = base;
  renamed.name = "other";
  EXPECT_NE(cache_key(renamed), ref) << "name is part of the record";

  // A one-transition spec edit MUST change the key: the spec is keyed by
  // its canonical bytes, not its display name.
  BatchSpec edited = base;
  edited.spec = toggle_stg();
  EXPECT_NE(cache_key(edited), ref);

  BatchSpec remoded = base;
  remoded.opts.mode = FlowMode::kRelativeTiming;
  EXPECT_NE(cache_key(remoded), ref);

  BatchSpec recapped = base;
  recapped.opts.sg.max_states = 4096;
  EXPECT_NE(cache_key(recapped), ref);

  BatchSpec restopped = base;
  restopped.opts.stop_after = "reachability";
  EXPECT_NE(cache_key(restopped), ref);

  // Bumping the code-version stamp invalidates every existing key.
  EXPECT_NE(cache_key(base, kCacheCodeVersion + 1), ref);
}

TEST(CacheKey, InsensitiveToThreadBudgets) {
  // Results are byte-identical across thread settings, so keys must be too
  // — otherwise the same answer would be stored N times.
  const BatchSpec base = celement_item();
  BatchSpec rethreaded = base;
  rethreaded.opts.sg.threads = 8;
  rethreaded.opts.encode.threads = 4;
  EXPECT_EQ(cache_key(rethreaded), cache_key(base));
}

TEST_F(CacheTest, HitIsByteIdenticalToFreshRunAcrossTheCorpus) {
  const std::vector<BatchSpec> corpus = builtin_corpus();
  const FlowContext ctx;
  const std::string reference = to_json(run_batch(corpus, ctx));

  const ResultCache cache(dir_);
  CacheStats first, second;
  EXPECT_EQ(to_json(run_batch_cached(corpus, ctx, cache, &first)), reference);
  EXPECT_EQ(first.hits, 0);
  EXPECT_EQ(first.misses, static_cast<long long>(corpus.size()));
  EXPECT_EQ(first.stores, static_cast<long long>(corpus.size()));

  // Second pass: 100% hits, still the same bytes.
  EXPECT_EQ(to_json(run_batch_cached(corpus, ctx, cache, &second)),
            reference);
  EXPECT_EQ(second.hits, static_cast<long long>(corpus.size()));
  EXPECT_EQ(second.misses, 0);
  EXPECT_EQ(second.stores, 0);

  const ResultCache::DirStats stats = cache.scan();
  EXPECT_EQ(stats.entries, corpus.size());
  EXPECT_GT(stats.bytes, 0u);
}

TEST_F(CacheTest, StoreRoundTripsRecordAndNetlistBytes) {
  const ResultCache cache(dir_);
  const BatchSpec spec = celement_item();
  BatchItemResult item = run_batch_item(spec, {});
  item.netlist_text = "# a netlist dump\ngate g1\n";
  const std::string key = cache_key(spec);
  cache.store(key, item);

  const std::optional<BatchItemResult> back = cache.lookup(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(item_record_json(*back), item_record_json(item));
  EXPECT_EQ(back->netlist_text, item.netlist_text);
}

TEST_F(CacheTest, MissReturnsNulloptWithoutCreatingAnything) {
  const ResultCache cache(dir_);
  EXPECT_FALSE(cache.lookup(cache_key(celement_item())).has_value());
  EXPECT_EQ(cache.scan().entries, 0u);
}

std::string lookup_error(const ResultCache& cache, const std::string& key) {
  try {
    cache.lookup(key);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST_F(CacheTest, CorruptEntriesAreRejectedLoudly) {
  const ResultCache cache(dir_);
  const BatchSpec spec = celement_item();
  const std::string key = cache_key(spec);
  cache.store(key, run_batch_item(spec, {}));
  const std::string path = cache.entry_path(key);

  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string good = buf.str();
  in.close();

  const auto write_entry = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  };

  // Truncation at any point must throw, never parse.
  for (const std::size_t cut : {good.size() - 1, good.size() / 2,
                                std::size_t{10}, std::size_t{0}}) {
    write_entry(good.substr(0, cut));
    const std::string err = lookup_error(cache, key);
    EXPECT_FALSE(err.empty()) << "cut=" << cut;
    EXPECT_NE(err.find(path), std::string::npos)
        << "the error must name the damaged file";
  }

  // A flipped payload byte fails the integrity digest.
  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x20;
  write_entry(flipped);
  EXPECT_NE(lookup_error(cache, key).find("digest"), std::string::npos);

  // Trailing garbage after the end trailer.
  write_entry(good + "extra");
  EXPECT_FALSE(lookup_error(cache, key).empty());

  // A foreign schema version.
  std::string future = good;
  future.replace(future.find("rtcache 1"), 9, "rtcache 2");
  write_entry(future);
  EXPECT_NE(lookup_error(cache, key).find("schema"), std::string::npos);

  // An entry stored under the wrong address (renamed file).
  write_entry(good);
  std::string other_key = key;
  other_key[0] = other_key[0] == 'a' ? 'b' : 'a';
  fs::create_directories(fs::path(cache.entry_path(other_key)).parent_path());
  fs::copy_file(path, cache.entry_path(other_key));
  EXPECT_NE(lookup_error(cache, other_key).find("key"), std::string::npos);

  // The original, undamaged entry still reads back fine.
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST_F(CacheTest, CancelledResultsAreNeverStored) {
  const std::vector<BatchSpec> corpus = {celement_item()};
  CancelToken token;
  token.request_cancel();
  FlowContext ctx;
  ctx.cancel = &token;

  const ResultCache cache(dir_);
  CacheStats stats;
  const BatchResult result = run_batch_cached(corpus, ctx, cache, &stats);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].diagnostic.kind, "cancelled");
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.stores, 0) << "cancellation is schedule noise";
  EXPECT_EQ(cache.scan().entries, 0u);

  // The un-cancelled rerun is a miss (nothing was memoized) and stores.
  CacheStats rerun;
  run_batch_cached(corpus, {}, cache, &rerun);
  EXPECT_EQ(rerun.misses, 1);
  EXPECT_EQ(rerun.stores, 1);
}

TEST_F(CacheTest, LoadErrorItemsBypassTheCache) {
  BatchSpec bad;
  bad.name = "missing.g";
  bad.load_error = BatchDiagnostic{"parse", "cannot open STG file"};

  const ResultCache cache(dir_);
  CacheStats stats;
  const BatchResult result = run_batch_cached({bad}, {}, cache, &stats);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_FALSE(result.items[0].ok);
  EXPECT_EQ(stats.hits + stats.misses + stats.stores, 0)
      << "no spec bytes to key";
  EXPECT_EQ(cache.scan().entries, 0u);
}

TEST_F(CacheTest, CachedItemReportsTheLookupBeforeItRuns) {
  const ResultCache cache(dir_);
  const BatchSpec spec = celement_item();
  const std::string key = cache_key(spec);
  std::vector<std::string> events;
  const auto run = [&] {
    events.push_back("run");
    return run_batch_item(spec, {});
  };
  const auto on_lookup = [&](bool hit) {
    events.push_back(hit ? "hit" : "miss");
  };

  const CachedItem miss = cached_item(cache, key, spec.name, run, on_lookup);
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(miss.stored);
  const CachedItem hit = cached_item(cache, key, spec.name, run, on_lookup);
  EXPECT_TRUE(hit.hit);
  EXPECT_FALSE(hit.stored);
  EXPECT_EQ(item_record_json(hit.result), item_record_json(miss.result));
  EXPECT_EQ(events, (std::vector<std::string>{"miss", "run", "hit"}));
}

TEST_F(CacheTest, EntryNamingAnotherItemIsRejected) {
  // B's record stored under A's key: the entry's digest is valid, but
  // serving it would hand A's caller a record named B.
  const ResultCache cache(dir_);
  BatchSpec a = celement_item();
  a.name = "A";
  BatchSpec b = celement_item();
  b.name = "B";
  const std::string key = cache_key(a);
  cache.store(key, run_batch_item(b, {}));
  const std::string want = "cache entry '" + cache.entry_path(key) +
                           "': stored name 'B' does not match item 'A'";

  try {
    run_batch_cached({a}, {}, cache);
    ADD_FAILURE() << "a foreign record was served";
  } catch (const Error& e) {
    EXPECT_EQ(e.what(), want);
  }

  // The kernel refuses it before reporting a lookup or running anything.
  bool reported = false;
  bool ran = false;
  try {
    cached_item(
        cache, key, "A",
        [&] {
          ran = true;
          return BatchItemResult{};
        },
        [&](bool) { reported = true; });
    ADD_FAILURE() << "a foreign record was served";
  } catch (const Error& e) {
    EXPECT_EQ(e.what(), want);
  }
  EXPECT_FALSE(reported);
  EXPECT_FALSE(ran);
}

// --- LRU pruning ------------------------------------------------------------

/// Store one entry per name and return name -> key.
std::vector<std::pair<std::string, std::string>> store_named_entries(
    const ResultCache& cache, const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, std::string>> keys;
  for (const std::string& name : names) {
    BatchSpec spec = celement_item();
    spec.name = name;  // the name is keyed, so every entry is distinct
    const std::string key = cache_key(spec);
    cache.store(key, run_batch_item(spec, {}));
    keys.emplace_back(name, key);
  }
  return keys;
}

TEST_F(CacheTest, PruneIsANoOpUnderTheCap) {
  const ResultCache cache(dir_);
  store_named_entries(cache, {"a", "b"});
  const std::uintmax_t bytes = cache.scan().bytes;
  const ResultCache::PruneStats stats = cache.prune(bytes);
  EXPECT_EQ(stats.scanned, 2u);
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(stats.bytes_before, bytes);
  EXPECT_EQ(stats.bytes_after, bytes);
  EXPECT_EQ(cache.scan().entries, 2u);
}

TEST_F(CacheTest, PruneEvictsLeastRecentlyUsedFirst) {
  const ResultCache cache(dir_);
  const auto keys = store_named_entries(cache, {"a", "b", "c", "d"});

  // Age the write stamps explicitly: a oldest ... d newest.
  const auto now = fs::file_time_type::clock::now();
  for (std::size_t i = 0; i < keys.size(); ++i)
    fs::last_write_time(cache.entry_path(keys[i].second),
                        now - std::chrono::minutes(40 - 10 * i));

  // A successful lookup REFRESHES recency: "a" jumps from oldest to
  // newest, so the LRU order is now b, c, d, a.
  ASSERT_TRUE(cache.lookup(keys[0].second).has_value());

  // Cap at exactly the survivors' size: b and c (now the two oldest)
  // must go, a (freshly used) and d must stay.
  const std::uintmax_t keep =
      fs::file_size(cache.entry_path(keys[0].second)) +
      fs::file_size(cache.entry_path(keys[3].second));
  const ResultCache::PruneStats stats = cache.prune(keep);
  EXPECT_EQ(stats.scanned, 4u);
  EXPECT_EQ(stats.evicted, 2u);
  EXPECT_LE(stats.bytes_after, keep);

  EXPECT_TRUE(cache.lookup(keys[0].second).has_value()) << "a: recently used";
  EXPECT_FALSE(cache.lookup(keys[1].second).has_value()) << "b: LRU, evicted";
  EXPECT_FALSE(cache.lookup(keys[2].second).has_value()) << "c: evicted";
  EXPECT_TRUE(cache.lookup(keys[3].second).has_value()) << "d: newest";
}

TEST_F(CacheTest, PruneNeverEvictsTheProtectedKey) {
  const ResultCache cache(dir_);
  const auto keys = store_named_entries(cache, {"a", "b", "c"});

  // Make the protected entry the LRU candidate — oldest stamp by far.
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(cache.entry_path(keys[0].second),
                      now - std::chrono::hours(24));

  // A zero cap demands evicting everything; the protected entry is the
  // just-written one in the serve daemon's store path and must survive.
  const ResultCache::PruneStats stats =
      cache.prune(0, /*protect_key=*/keys[0].second);
  EXPECT_EQ(stats.evicted, 2u);
  EXPECT_TRUE(cache.lookup(keys[0].second).has_value());
  EXPECT_FALSE(cache.lookup(keys[1].second).has_value());
  EXPECT_FALSE(cache.lookup(keys[2].second).has_value());
  EXPECT_EQ(cache.scan().entries, 1u);
}

TEST_F(CacheTest, PruneUnderConcurrentStoresStaysConsistent) {
  // Writers keep storing fresh entries while other threads prune the
  // store down; nothing may crash, corrupt, or strand the store above
  // the cap once the dust settles. (Entries vanishing between scan and
  // unlink is the normal case here, not an error.)
  const ResultCache cache(dir_);
  const BatchItemResult payload = run_batch_item(celement_item(), {});
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 12;
  const std::uintmax_t cap = 4096;

  std::vector<std::thread> workers;
  for (int w = 0; w < kWriters; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        BatchSpec spec = celement_item();
        spec.name = "w" + std::to_string(w) + "_" + std::to_string(i);
        const std::string key = cache_key(spec);
        BatchItemResult item = payload;
        item.name = spec.name;
        cache.store(key, item);
        // Prune with the just-stored key protected, like the daemon's
        // post-store cap enforcement; the entry must still be readable
        // immediately after OUR prune returns... unless a sibling's
        // prune (which does not protect it) already aged it out — both
        // outcomes are valid, corruption is not.
        cache.prune(cap, key);
        try {
          cache.lookup(key);
        } catch (const Error& e) {
          ADD_FAILURE() << "corrupt read after concurrent prune: "
                        << e.what();
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();

  // Quiescent: one final prune lands the store at or under the cap, and
  // every survivor reads back clean.
  const ResultCache::PruneStats final_stats = cache.prune(cap);
  EXPECT_LE(final_stats.bytes_after, cap);
  std::size_t readable = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      BatchSpec spec = celement_item();
      spec.name = "w" + std::to_string(w) + "_" + std::to_string(i);
      if (cache.lookup(cache_key(spec)).has_value()) ++readable;
    }
  }
  EXPECT_EQ(readable, cache.scan().entries);
}

TEST_F(CacheTest, ClearRemovesEveryEntry) {
  const ResultCache cache(dir_);
  const BatchSpec spec = celement_item();
  cache.store(cache_key(spec), run_batch_item(spec, {}));
  EXPECT_EQ(cache.scan().entries, 1u);
  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_EQ(cache.scan().entries, 0u);
  EXPECT_FALSE(cache.lookup(cache_key(spec)).has_value());
}

}  // namespace
}  // namespace rtcad
