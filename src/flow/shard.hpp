// The ordered-work engine under batch, shard, sweep and drive: N
// independent units of work keyed by index (corpus items, sweep
// variants), whose records the caller gets in index order whatever the
// schedule or process split. It owns, once for every record type, the
// fan-out, the fingerprint mixer, the shard file (shard i of N holds the
// indices ≡ i mod N; one writer, one strict reader) and the merge. The
// kind-specific half — the `kind` word, the total's key, extra header
// fields and the record codec — is a ShardFormat specialisation: batch
// items here, sweep outcomes in flow/sweep.hpp. Every record is
// deterministic and independently keyed, so shards may run anywhere, at
// any thread settings, in any order, and the merge is a pure reassembly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flow/batchflow.hpp"
#include "flow/json.hpp"

namespace rtcad {

/// Version of the shard-file envelope (both kinds) this build reads and
/// writes.
inline constexpr int kShardSchema = 1;

/// Run `body(k)` once for every k in [0, n) on min(ctx.budget.corpus, n)
/// workers (at least one), claiming k in increasing order. `body` writes
/// only its own slot k, so results are schedule-independent; exceptions
/// propagate after every worker stops.
void fan_out(std::size_t n, const FlowContext& ctx,
             const std::function<void(std::size_t k)>& body);

/// FNV-1a 64 over a sequence of fields, each followed by an out-of-band
/// separator so field boundaries cannot alias ("ab"+"c" vs "a"+"bc").
class Fingerprint {
 public:
  void mix(const std::string& field);
  std::string hex() const;  ///< 16 lowercase hex digits

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// The indices shard `shard` of `of` owns out of `total`: shard,
/// shard + of, ... Round-robin (not contiguous blocks) so every shard
/// gets a mix of cheap and expensive work regardless of ordering.
std::vector<std::size_t> shard_indices(std::size_t total, std::size_t shard,
                                       std::size_t of);

/// The kind-specific half of a shard file; one specialisation per record
/// type. Members: kKind (the "kind" word, which also names the file in
/// errors), kTotal (the JSON key of the total), kUnit (what a fingerprint
/// identifies, for merge errors), Header (extra header fields),
/// write_header/read_header, write_record/read_record (the record codec).
template <typename Record>
struct ShardFormat;

template <typename Record>
struct ShardItem {
  std::size_t index = 0;  ///< position in the full, unsharded order
  Record record;
};

/// One shard's worth of records: indices ≡ shard (mod of), in increasing
/// index order, plus the header every shard of the same work repeats.
template <typename Record>
struct Shard {
  std::size_t shard = 0;  ///< this shard's id, in [0, of)
  std::size_t of = 1;     ///< total number of shards
  std::size_t total = 0;  ///< record count of the full work, all shards
  /// Identity of the full work; the merge requires every shard to agree,
  /// catching shards produced from different inputs or flags.
  std::string fingerprint;
  typename ShardFormat<Record>::Header header{};
  std::vector<ShardItem<Record>> items;
};

/// Canonical shard-file JSON: stable key order, '\n'-terminated, no
/// timings — byte-identical across runs and thread counts.
template <typename Record>
std::string to_shard_json(const Shard<Record>& shard);

/// Strict decode of a parsed shard file of Record's kind. Throws
/// rtcad::Error naming the artifact and field on a schema version this
/// build does not speak, the wrong kind, or missing/mistyped fields.
template <typename Record>
Shard<Record> read_shard(const Json& root);

/// parse_json (label "shard JSON", positioned errors) + read_shard.
template <typename Record>
Shard<Record> parse_shard_json(const std::string& text) {
  return read_shard<Record>(parse_json(text, "shard JSON"));
}

/// Validate a shard set and reassemble its records in index order. The
/// set must be complete and consistent — same `of`, total and
/// fingerprint everywhere, shard ids exactly {0..of-1}, every shard
/// holding exactly the indices it owns — or rtcad::Error names the first
/// violation. Memory is bounded by the records the shards hold, never by
/// a header's claim.
template <typename Record>
std::vector<Record> merge_records(const std::vector<Shard<Record>>& shards);

// --- batch shards ----------------------------------------------------------

template <>
struct ShardFormat<BatchItemResult> {
  static constexpr const char* kKind = "shard";
  static constexpr const char* kTotal = "corpus";
  static constexpr const char* kUnit = "corpus";
  struct Header {};  ///< the "ok"/"failed" counts derive from the items
  static void write_header(std::string* out,
                           const Shard<BatchItemResult>& shard);
  static Header read_header(const Json& root, const std::string& where);
  static std::string write_record(const BatchItemResult& item);
  static BatchItemResult read_record(const Json& rec,
                                     const std::string& where);
};

using ShardRun = Shard<BatchItemResult>;

/// Order-sensitive fingerprint of a corpus and its result-shaping options
/// (item names, per-item mode, reachability cap, stop point). Thread
/// settings are deliberately excluded — results are byte-identical
/// across them, so shards may legitimately run at different mixtures.
std::string corpus_fingerprint(const std::vector<BatchSpec>& corpus);

/// Run this shard's slice of `corpus` under `ctx` (same per-item kernel
/// and determinism as run_batch). Requires of >= 1 and shard < of. The
/// crash-tolerant extras (CLI `shard --resume`, which `drive` relies on
/// to make retry cheap):
///
///  * `partial` (may be null) is the parse of a previously written —
///    possibly incomplete — shard file for the SAME shard of the SAME
///    corpus. Its records are reused verbatim; only owned indices it does
///    not hold are recomputed. Records with diagnostic kind "cancelled"
///    are NOT reused (a killed run's cancellations are schedule noise,
///    not results). A partial from a different corpus/flags (fingerprint),
///    a different shard/of, or holding a non-owned index throws Error —
///    resuming someone else's file must fail loudly, not merge garbage.
///  * When `checkpoint_path` is non-empty, the shard file is rewritten
///    atomically (temp + rename) after EVERY completed item, so a crashed
///    process always leaves a valid partial file for the next --resume.
///  * `on_item` (may be empty) fires after each item completes and is
///    checkpointed, with the number of newly computed items so far.
///
/// The returned run — and therefore its file — is byte-identical to a
/// fresh run, however the work was split across attempts.
ShardRun run_shard(const std::vector<BatchSpec>& corpus, std::size_t shard,
                   std::size_t of, const FlowContext& ctx = {},
                   const ShardRun* partial = nullptr,
                   const std::string& checkpoint_path = "",
                   const std::function<void(std::size_t computed)>& on_item =
                       {});

/// Strict parse of ONE item record — the single-line object
/// `item_record_json` emits. The parse/render pair is a proven byte
/// round-trip (the shard merge is built on it); the result cache stores
/// record bytes and decodes them through this. Throws rtcad::Error on
/// malformed or mistyped input.
BatchItemResult parse_item_record_json(const std::string& text);

/// merge_records over batch shards, as the batch result:
/// `to_json(merge_shards(...))` is byte-identical to
/// `to_json(run_batch(corpus))`.
BatchResult merge_shards(const std::vector<ShardRun>& shards);

}  // namespace rtcad
