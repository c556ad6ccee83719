#include "flow/cache.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "flow/shard.hpp"
#include "stg/parse.hpp"
#include "util/fsio.hpp"
#include "util/sha256.hpp"
#include "util/strings.hpp"

namespace rtcad {
namespace {

namespace fs = std::filesystem;

/// Entry-file extension; anything else in the store is ignored by scan()
/// and clear() (temp files mid-rename, user droppings).
constexpr const char* kEntryExt = ".rtc";

/// Length-framed field for the key hash: "<decimal length>:<bytes>".
/// Unambiguous however the field bytes look.
void mix_field(Sha256* h, const std::string& field) {
  const std::string frame = strprintf("%zu:", field.size());
  h->update(frame);
  h->update(field);
}

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw Error("cache entry '" + path + "': " + what);
}

/// One "<word> <decimal>\n" header line; returns the number and advances
/// *pos past the newline.
std::size_t read_sized_header(const std::string& text, std::size_t* pos,
                              const std::string& word,
                              const std::string& path) {
  const std::string prefix = word + " ";
  if (text.compare(*pos, prefix.size(), prefix) != 0)
    corrupt(path, "missing '" + word + "' header");
  *pos += prefix.size();
  const std::size_t eol = text.find('\n', *pos);
  if (eol == std::string::npos) corrupt(path, "truncated header");
  std::size_t n = 0;
  for (std::size_t i = *pos; i < eol; ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') corrupt(path, "malformed '" + word + "' size");
    n = n * 10 + static_cast<std::size_t>(c - '0');
  }
  *pos = eol + 1;
  return n;
}

}  // namespace

std::string cache_key(const BatchSpec& item, int version) {
  RTCAD_EXPECTS(!item.load_error);
  Sha256 h;
  mix_field(&h, item.name);
  mix_field(&h, write_stg(item.spec));
  mix_field(&h, item.opts.mode == FlowMode::kRelativeTiming ? "rt" : "si");
  mix_field(&h, std::to_string(item.opts.sg.max_states));
  mix_field(&h, item.opts.stop_after);
  mix_field(&h, std::to_string(version));
  return h.finish_hex();
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    throw Error("cannot create cache directory '" + dir_ +
                "': " + ec.message());
}

std::string ResultCache::entry_path(const std::string& key) const {
  RTCAD_EXPECTS(key.size() >= 2);
  return dir_ + "/" + key.substr(0, 2) + "/" + key + kEntryExt;
}

void ResultCache::store(const std::string& key,
                        const BatchItemResult& item) const {
  const std::string record = item_record_json(item);
  const std::string& netlist = item.netlist_text;

  Sha256 payload;
  payload.update(record);
  payload.update("\0", 1);  // out-of-band separator between the sections
  payload.update(netlist);

  std::string out;
  out += strprintf("rtcache %d\n", kCacheSchema);
  out += "key " + key + "\n";
  out += "sha " + payload.finish_hex() + "\n";
  out += strprintf("record %zu\n", record.size());
  out += record;
  out += "\n";
  out += strprintf("netlist %zu\n", netlist.size());
  out += netlist;
  out += "\nend\n";

  const std::string path = entry_path(key);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec)
    throw Error("cannot create cache shard directory for '" + path +
                "': " + ec.message());
  atomic_write_file(path, out);
}

std::optional<BatchItemResult> ResultCache::lookup(
    const std::string& key) const {
  const std::string path = entry_path(key);
  const std::optional<std::string> text = read_file_if_exists(path);
  if (!text) return std::nullopt;

  // Strict envelope walk. Every deviation — wrong magic, wrong key, bad
  // sizes, missing trailer, digest mismatch — is a loud rejection; a
  // store must never quietly serve (or quietly drop) damaged bytes.
  std::size_t pos = 0;
  const std::string magic = strprintf("rtcache %d\n", kCacheSchema);
  if (text->compare(0, magic.size(), magic) != 0)
    corrupt(path, "bad magic or unsupported schema (this build speaks " +
                      std::to_string(kCacheSchema) + ")");
  pos = magic.size();

  const std::string key_line = "key " + key + "\n";
  if (text->compare(pos, key_line.size(), key_line) != 0)
    corrupt(path, "key line does not match the entry's address");
  pos += key_line.size();

  if (text->compare(pos, 4, "sha ") != 0) corrupt(path, "missing digest");
  pos += 4;
  const std::size_t sha_eol = text->find('\n', pos);
  if (sha_eol == std::string::npos || sha_eol - pos != 64)
    corrupt(path, "malformed digest");
  const std::string want_sha = text->substr(pos, 64);
  pos = sha_eol + 1;

  const std::size_t record_len =
      read_sized_header(*text, &pos, "record", path);
  if (pos + record_len + 1 > text->size())
    corrupt(path, "truncated record payload");
  const std::string record = text->substr(pos, record_len);
  pos += record_len;
  if ((*text)[pos] != '\n') corrupt(path, "record payload overruns its size");
  ++pos;

  const std::size_t netlist_len =
      read_sized_header(*text, &pos, "netlist", path);
  if (pos + netlist_len + 1 > text->size())
    corrupt(path, "truncated netlist payload");
  std::string netlist = text->substr(pos, netlist_len);
  pos += netlist_len;
  if ((*text)[pos] != '\n')
    corrupt(path, "netlist payload overruns its size");
  ++pos;

  if (text->compare(pos, std::string::npos, "end\n") != 0)
    corrupt(path, "missing end trailer (truncated or trailing garbage)");

  Sha256 payload;
  payload.update(record);
  payload.update("\0", 1);
  payload.update(netlist);
  if (payload.finish_hex() != want_sha)
    corrupt(path, "integrity digest mismatch (bytes damaged on disk)");

  BatchItemResult item;
  try {
    item = parse_item_record_json(record);
  } catch (const Error& e) {
    corrupt(path, std::string("record does not parse: ") + e.what());
  }
  item.netlist_text = std::move(netlist);

  // Refresh the entry's recency stamp so LRU pruning sees hits, not just
  // writes. Explicit (not atime: relatime/noatime mounts don't record
  // reads). Best-effort — a failed touch only ages the entry.
  std::error_code touch_ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), touch_ec);

  return item;
}

ResultCache::DirStats ResultCache::scan() const {
  DirStats stats;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != kEntryExt) continue;
    ++stats.entries;
    stats.bytes += it->file_size(ec);
  }
  return stats;
}

std::size_t ResultCache::clear() const {
  std::size_t removed = 0;
  std::error_code ec;
  std::vector<fs::path> victims;
  for (fs::recursive_directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != kEntryExt) continue;
    victims.push_back(it->path());
  }
  for (const fs::path& p : victims) {
    if (fs::remove(p, ec) && !ec) ++removed;
  }
  return removed;
}

ResultCache::PruneStats ResultCache::prune(std::uintmax_t max_bytes,
                                           const std::string& protect_key)
    const {
  struct Entry {
    fs::file_time_type stamp;
    fs::path path;
    std::uintmax_t bytes = 0;
  };
  const std::string protect_path =
      protect_key.empty() ? std::string() : entry_path(protect_key);

  PruneStats stats;
  std::vector<Entry> entries;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != kEntryExt) continue;
    std::error_code stat_ec;
    Entry e;
    e.path = it->path();
    e.bytes = fs::file_size(e.path, stat_ec);
    if (stat_ec) continue;  // vanished under a concurrent clear/prune
    e.stamp = fs::last_write_time(e.path, stat_ec);
    if (stat_ec) continue;
    ++stats.scanned;
    stats.bytes_before += e.bytes;
    entries.push_back(std::move(e));
  }
  stats.bytes_after = stats.bytes_before;
  if (stats.bytes_before <= max_bytes) return stats;

  // Oldest first; the path tie-break keeps the order deterministic when
  // stamps collide (coarse filesystem clocks under a fast test).
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.stamp != b.stamp) return a.stamp < b.stamp;
    return a.path < b.path;
  });
  for (const Entry& e : entries) {
    if (stats.bytes_after <= max_bytes) break;
    if (!protect_path.empty() && e.path == protect_path) continue;
    std::error_code rm_ec;
    if (fs::remove(e.path, rm_ec) && !rm_ec) {
      ++stats.evicted;
      stats.bytes_after -= std::min(stats.bytes_after, e.bytes);
    }
  }
  return stats;
}

BatchResult run_batch_cached(const std::vector<BatchSpec>& corpus,
                             const FlowContext& ctx, const ResultCache& cache,
                             CacheStats* stats) {
  std::vector<BatchItemResult> items(corpus.size());
  std::atomic<long long> hits{0}, misses{0}, stores{0};
  fan_out(corpus.size(), ctx, [&](std::size_t i) {
    const BatchSpec& spec = corpus[i];
    if (spec.load_error) {  // no spec bytes to key; run (trivially) fresh
      items[i] = run_batch_item(spec, ctx);
      return;
    }
    const std::string key = cache_key(spec);
    if (std::optional<BatchItemResult> hit = cache.lookup(key)) {
      if (hit->name != spec.name)
        throw Error("cache entry '" + cache.entry_path(key) +
                    "': stored name '" + hit->name +
                    "' does not match item '" + spec.name + "'");
      items[i] = std::move(*hit);
      hits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    misses.fetch_add(1, std::memory_order_relaxed);
    items[i] = run_batch_item(spec, ctx);
    // Cancellation is wall-clock noise: which round observed the token
    // depends on machine speed, so those bytes must never be memoized.
    const BatchItemResult& item = items[i];
    if (item.ok || item.diagnostic.kind != "cancelled") {
      cache.store(key, item);
      stores.fetch_add(1, std::memory_order_relaxed);
    }
  });

  if (stats) {
    stats->hits += hits.load();
    stats->misses += misses.load();
    stats->stores += stores.load();
  }
  return tally(std::move(items));
}

}  // namespace rtcad
