// Content-addressed result cache: the memoization layer that turns the
// Figure 2 flow from a batch binary into a service. Designers iterate —
// resubmitting mostly-unchanged corpora — so the dominant request is one
// the flow has already answered. The repo's core invariant (per-item
// results are byte-identical across runs, thread counts and machines)
// makes those answers cacheable *as bytes*: a hit returns the exact
// record a fresh run would produce, proven by the same parse/render
// round-trip the shard merge is built on.
//
// Keying. A result is addressed by what determines its bytes and nothing
// else: the item name (part of the record), the canonical spec bytes,
// the result-shaping options (mode, reachability cap, stop point), and a
// code-version stamp. Thread budgets and deadlines are excluded — results
// do not depend on them. The stamp is the honesty knob: any change to the
// flow's output bytes must bump kCacheCodeVersion, turning every stale
// entry into a miss instead of a wrong answer.
//
// Durability. One entry per key under the store directory, written
// atomically (temp + rename) and carrying an integrity digest; a
// truncated, tampered or foreign entry throws instead of being silently
// recomputed — a memoized store that can serve wrong bytes is worse than
// no store. Concurrent readers and writers need no locking: writers of
// the same key produce identical bytes and rename atomically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "flow/batchflow.hpp"

namespace rtcad {

/// Version of the on-disk entry format (the envelope, not the payload).
inline constexpr int kCacheSchema = 1;

/// Code-version stamp mixed into every cache key. Bump on ANY change that
/// can alter result bytes — flow algorithms, stage details, record JSON
/// rendering, netlist dumps. Goldens change in the same commit, so the
/// rule of thumb is: regenerated goldens => bump this.
inline constexpr int kCacheCodeVersion = 2;

/// The normative cache key (documented in docs/CLI.md): lowercase-hex
/// SHA-256 over a length-framed encoding of, in order,
///
///   item name, canonical spec bytes (write_stg), mode ("rt"/"si"),
///   sg.max_states, stop_after, code-version stamp.
///
/// Length-framing means no field pairing can alias another. Items that
/// failed to load have no spec bytes; callers must not key them.
/// `version` is overridable for tests; production callers use the
/// default.
std::string cache_key(const BatchSpec& item, int version = kCacheCodeVersion);

struct CacheStats {
  long long hits = 0;
  long long misses = 0;
  long long stores = 0;  ///< misses actually persisted (cancelled runs are not)
};

class ResultCache {
 public:
  /// Opens the store rooted at `dir`, creating it (and parents) if
  /// missing. Throws Error when the directory cannot be created.
  explicit ResultCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// The stored result for `key`, or nullopt on a miss. A present but
  /// invalid entry — truncated, bit-flipped, wrong key, foreign schema —
  /// throws Error naming the file and the defect.
  std::optional<BatchItemResult> lookup(const std::string& key) const;

  /// Persist `item` under `key`: record bytes exactly item_record_json's,
  /// netlist dump (when present) alongside, integrity digest over both.
  /// Atomic; concurrent writers of one key race benignly.
  void store(const std::string& key, const BatchItemResult& item) const;

  /// Entry file for `key`: <dir>/<key[0:2]>/<key>.rtc — two-level fan-out
  /// so a million-entry store does not put a million names in one
  /// directory.
  std::string entry_path(const std::string& key) const;

  struct DirStats {
    std::size_t entries = 0;
    std::uintmax_t bytes = 0;
  };
  /// Walk the store: entry count and total size (for `rtflow_cli cache
  /// stats`).
  DirStats scan() const;

  /// Delete every entry; returns how many were removed.
  std::size_t clear() const;

  struct PruneStats {
    std::size_t scanned = 0;          ///< entries found before pruning
    std::size_t evicted = 0;          ///< entries deleted
    std::uintmax_t bytes_before = 0;  ///< store size before
    std::uintmax_t bytes_after = 0;   ///< store size after
  };
  /// Evict least-recently-used entries until the store fits in
  /// `max_bytes` (`rtflow_cli cache prune --max-bytes`, and the serve
  /// daemon's `--cache-max-bytes` cap after each store). Recency is the
  /// entry file's write stamp: store() sets it, and a successful
  /// lookup() refreshes it — an explicit touch, because atime is
  /// unreliable under relatime/noatime mounts. Eviction order is
  /// deterministic for a given set of stamps: ascending (stamp, path).
  /// `protect_key`, when non-empty, names an entry that is never
  /// evicted — the daemon passes the key it just stored so a cap
  /// enforcement can't eat the answer mid-request. Entries that vanish
  /// concurrently (another pruner, a clear) are skipped, not errors.
  PruneStats prune(std::uintmax_t max_bytes,
                   const std::string& protect_key = std::string()) const;

 private:
  std::string dir_;
};

/// run_batch with memoization: per item, consult `cache` first and
/// persist on a miss. The result is byte-identical to the uncached
/// `run_batch(corpus, ctx)` whatever mixture of hits and misses served
/// it. Items with load errors bypass the cache; "cancelled" results are
/// served-if-asked but never stored (they are schedule noise, not
/// answers). `stats` (optional) accumulates hit/miss/store counts.
/// Throws Error if the store holds a corrupt entry.
BatchResult run_batch_cached(const std::vector<BatchSpec>& corpus,
                             const FlowContext& ctx, const ResultCache& cache,
                             CacheStats* stats = nullptr);

}  // namespace rtcad
