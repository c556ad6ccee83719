#include "flow/shard.hpp"

#include <algorithm>
#include <mutex>
#include <optional>

#include "flow/sweep.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"
#include "util/workpool.hpp"

namespace rtcad {

void fan_out(std::size_t n, const FlowContext& ctx,
             const std::function<void(std::size_t k)>& body) {
  const std::size_t requested = static_cast<std::size_t>(
      WorkPool::effective_threads(ctx.budget.corpus));
  WorkPool pool(static_cast<int>(std::max<std::size_t>(
      1, std::min(requested, n))));
  pool.for_each_index(n, body);
}

void Fingerprint::mix(const std::string& field) {
  for (const char c : field) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  h_ ^= 0x100;  // separator: no byte can collide with it
  h_ *= 1099511628211ull;
}

std::string Fingerprint::hex() const {
  return strprintf("%016llx", static_cast<unsigned long long>(h_));
}

std::vector<std::size_t> shard_indices(std::size_t total, std::size_t shard,
                                       std::size_t of) {
  RTCAD_EXPECTS(of >= 1 && shard < of);
  std::vector<std::size_t> out;
  for (std::size_t i = shard; i < total; i += of) out.push_back(i);
  return out;
}

template <typename Record>
std::string to_shard_json(const Shard<Record>& s) {
  using Format = ShardFormat<Record>;
  std::string out = "{\n";
  out += strprintf("  \"schema\": %d,\n", kShardSchema);
  out += strprintf("  \"kind\": \"%s\",\n", Format::kKind);
  out += strprintf("  \"shard\": %zu,\n", s.shard);
  out += strprintf("  \"of\": %zu,\n", s.of);
  out += strprintf("  \"%s\": %zu,\n", Format::kTotal, s.total);
  out += "  \"fingerprint\": \"" + s.fingerprint + "\",\n";
  Format::write_header(&out, s);
  out += "  \"items\": [\n";
  for (std::size_t i = 0; i < s.items.size(); ++i) {
    out += strprintf("    {\"index\": %zu, \"record\": ", s.items[i].index);
    out += Format::write_record(s.items[i].record);
    out += i + 1 < s.items.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

template <typename Record>
Shard<Record> read_shard(const Json& root) {
  using Format = ShardFormat<Record>;
  const std::string label = std::string(Format::kKind) + " JSON";
  const std::string where = label + ": " + Format::kKind + " file";
  const long long schema = json_require_int(root, "schema", where);
  if (schema != kShardSchema)
    throw Error(label + strprintf(": unsupported schema version %lld (this "
                                  "build speaks %d)",
                                  schema, kShardSchema));
  if (json_require_string(root, "kind", where) != Format::kKind)
    throw Error(label + ": \"kind\" must be \"" + Format::kKind + "\"");

  Shard<Record> s;
  s.shard = json_require_uint(root, "shard", where);
  s.of = json_require_uint(root, "of", where);
  s.total = json_require_uint(root, Format::kTotal, where);
  s.fingerprint = json_require_string(root, "fingerprint", where);
  if (s.of < 1) throw Error(label + ": \"of\" must be >= 1");
  if (s.shard >= s.of)
    throw Error(label + strprintf(": shard id %zu out of range (of %zu)",
                                  s.shard, s.of));
  s.header = Format::read_header(root, where);

  const Json& items = json_require(root, "items", where);
  if (items.kind != Json::Kind::kArray)
    throw Error(label + ": \"items\" must be an array");
  s.items.reserve(items.arr.size());
  for (std::size_t i = 0; i < items.arr.size(); ++i) {
    const std::string item_where = label + strprintf(": items[%zu]", i);
    const Json& entry = items.arr[i];
    ShardItem<Record> item;
    item.index = json_require_uint(entry, "index", item_where);
    item.record = Format::read_record(json_require(entry, "record", item_where),
                                      item_where + ".record");
    s.items.push_back(std::move(item));
  }
  return s;
}

template <typename Record>
std::vector<Record> merge_records(const std::vector<Shard<Record>>& shards) {
  using Format = ShardFormat<Record>;
  const char* const noun = Format::kKind;
  if (shards.empty())
    throw Error(strprintf("merge: no %s files given", noun));
  const Shard<Record>& first = shards[0];
  const std::size_t of = first.of;
  const std::size_t total = first.total;
  if (shards.size() != of)
    throw Error(strprintf("merge: got %zu %s files but shards declare "
                          "\"of\": %zu",
                          shards.size(), noun, of));

  std::vector<const Shard<Record>*> by_id(of, nullptr);
  for (const Shard<Record>& s : shards) {
    if (s.of != of || s.shard >= of)
      throw Error(strprintf("merge: %s %zu declares \"of\": %zu, expected "
                            "%zu",
                            noun, s.shard, s.of, of));
    if (s.total != total)
      throw Error(strprintf("merge: %s %zu declares %s size %zu, expected "
                            "%zu",
                            noun, s.shard, Format::kUnit, s.total, total));
    if (s.fingerprint != first.fingerprint)
      throw Error(strprintf(
          "merge: %s %zu was produced from a different %s or flags "
          "(fingerprint %s, expected %s) — every shard process must get "
          "the same flags in the same order",
          noun, s.shard, Format::kUnit, s.fingerprint.c_str(),
          first.fingerprint.c_str()));
    if (by_id[s.shard])
      throw Error(strprintf("merge: duplicate %s id %zu", noun, s.shard));
    by_id[s.shard] = &s;
    const std::size_t owned = total / of + (s.shard < total % of ? 1 : 0);
    if (s.items.size() != owned)
      throw Error(strprintf("merge: %s %zu holds %zu items, expected %zu",
                            noun, s.shard, s.items.size(), owned));
  }
  // Every id 0..of-1 is present once and holds exactly its owned count,
  // so the counts sum to `total`: the allocation below is bounded by the
  // records the input actually holds, not by its header.

  std::vector<Record> records(total);
  for (std::size_t id = 0; id < of; ++id) {
    const Shard<Record>& s = *by_id[id];
    for (std::size_t k = 0; k < s.items.size(); ++k) {
      const std::size_t expected = id + k * of;
      if (s.items[k].index != expected)
        throw Error(strprintf(
            "merge: %s %zu item %zu has index %zu, expected %zu (shards own "
            "index ≡ shard-id mod %zu, in increasing order)",
            noun, id, k, s.items[k].index, expected, of));
      records[expected] = s.items[k].record;
    }
  }
  return records;
}

// The engine's two record types.
template std::string to_shard_json(const Shard<BatchItemResult>&);
template std::string to_shard_json(const Shard<SweepOutcome>&);
template Shard<BatchItemResult> read_shard(const Json&);
template Shard<SweepOutcome> read_shard(const Json&);
template std::vector<BatchItemResult> merge_records(
    const std::vector<Shard<BatchItemResult>>&);
template std::vector<SweepOutcome> merge_records(
    const std::vector<Shard<SweepOutcome>>&);

// --- batch shards ----------------------------------------------------------

void ShardFormat<BatchItemResult>::write_header(std::string* out,
                                                const ShardRun& shard) {
  int ok = 0, failed = 0;
  for (const ShardItem<BatchItemResult>& s : shard.items)
    (s.record.ok ? ok : failed) += 1;
  *out += strprintf("  \"ok\": %d,\n", ok);
  *out += strprintf("  \"failed\": %d,\n", failed);
}

ShardFormat<BatchItemResult>::Header
ShardFormat<BatchItemResult>::read_header(const Json&, const std::string&) {
  return {};
}

std::string ShardFormat<BatchItemResult>::write_record(
    const BatchItemResult& item) {
  return item_record_json(item);
}

BatchItemResult ShardFormat<BatchItemResult>::read_record(
    const Json& rec, const std::string& where) {
  BatchItemResult item;
  item.name = json_require_string(rec, "name", where);
  item.ok = json_require_bool(rec, "ok", where);
  if (item.ok) {
    item.states = static_cast<int>(json_require_int(rec, "states", where));
    item.states_reduced =
        static_cast<int>(json_require_int(rec, "states_reduced", where));
    item.state_signals_added =
        static_cast<int>(json_require_int(rec, "state_signals", where));
    item.literals = static_cast<int>(json_require_int(rec, "literals", where));
    item.transistors =
        static_cast<int>(json_require_int(rec, "transistors", where));
    item.constraints = json_require_uint(rec, "constraints", where);
    const Json& stages = json_require(rec, "stages", where);
    if (stages.kind != Json::Kind::kArray)
      throw Error(where + ": field \"stages\" must be an array");
    for (const Json& stage : stages.arr) {
      item.stages.push_back(
          FlowStage{json_require_string(stage, "name", where),
                    json_require_string(stage, "detail", where)});
    }
  } else {
    const Json& diag = json_require(rec, "diagnostic", where);
    item.diagnostic.kind = json_require_string(diag, "kind", where);
    item.diagnostic.message = json_require_string(diag, "message", where);
  }
  return item;
}

std::string corpus_fingerprint(const std::vector<BatchSpec>& corpus) {
  Fingerprint fp;
  for (const BatchSpec& item : corpus) {
    fp.mix(item.name);
    fp.mix(item.opts.mode == FlowMode::kRelativeTiming ? "rt" : "si");
    fp.mix(std::to_string(item.opts.sg.max_states));
    // Result-shaping: shards cut at different stop points must never
    // merge. The empty string (the default = the synth stage) keeps the
    // pre-back-end fingerprints unchanged.
    fp.mix(item.opts.stop_after);
  }
  return fp.hex();
}

BatchItemResult parse_item_record_json(const std::string& text) {
  return ShardFormat<BatchItemResult>::read_record(
      parse_json(text, "shard JSON"), "shard JSON: item record");
}

ShardRun run_shard(const std::vector<BatchSpec>& corpus, std::size_t shard,
                   std::size_t of, const FlowContext& ctx,
                   const ShardRun* partial,
                   const std::string& checkpoint_path,
                   const std::function<void(std::size_t computed)>& on_item) {
  const std::vector<std::size_t> indices =
      shard_indices(corpus.size(), shard, of);

  ShardRun run;
  run.shard = shard;
  run.of = of;
  run.total = corpus.size();
  run.fingerprint = corpus_fingerprint(corpus);

  // Slots in owned-index order (index i sits at position i / of); the
  // partial file's records fill theirs up front. Every mismatch is the
  // operator resuming against the wrong corpus or the wrong shard; that
  // must fail loudly before any work is reused or discarded.
  std::vector<std::optional<BatchItemResult>> slots(indices.size());
  if (partial) {
    if (partial->fingerprint != run.fingerprint)
      throw Error(strprintf(
          "resume: partial shard file was produced from a different corpus "
          "or flags (fingerprint %s, expected %s)",
          partial->fingerprint.c_str(), run.fingerprint.c_str()));
    if (partial->shard != shard || partial->of != of ||
        partial->total != corpus.size())
      throw Error(strprintf(
          "resume: partial file is shard %zu/%zu over %zu items, expected "
          "%zu/%zu over %zu",
          partial->shard, partial->of, partial->total, shard, of,
          corpus.size()));
    for (const ShardItem<BatchItemResult>& s : partial->items) {
      if (s.index % of != shard || s.index >= corpus.size())
        throw Error(strprintf(
            "resume: partial file holds corpus index %zu, which shard "
            "%zu/%zu does not own",
            s.index, shard, of));
      // A "cancelled" record is when the previous run was killed, not a
      // result of the spec; recompute it.
      if (!s.record.ok && s.record.diagnostic.kind == "cancelled") continue;
      slots[s.index / of] = s.record;
    }
  }
  std::vector<std::size_t> missing;  // positions into `indices`/`slots`
  for (std::size_t k = 0; k < indices.size(); ++k)
    if (!slots[k]) missing.push_back(k);

  // The filled slots as the (possibly still incomplete) run, in
  // increasing index order — the writer's invariant.
  const auto assemble = [&] {
    run.items.clear();
    for (std::size_t k = 0; k < indices.size(); ++k)
      if (slots[k]) run.items.push_back({indices[k], *slots[k]});
  };

  // A checkpoint rewrite after every completion means a crash at ANY
  // point leaves a valid partial file behind. The mutex serializes only
  // the bookkeeping; the flow runs outside it.
  std::mutex mu;
  std::size_t computed = 0;
  fan_out(missing.size(), ctx, [&](std::size_t m) {
    const std::size_t k = missing[m];
    BatchItemResult item = run_batch_item(corpus[indices[k]], ctx);
    std::lock_guard<std::mutex> lock(mu);
    slots[k] = std::move(item);
    ++computed;
    if (!checkpoint_path.empty()) {
      assemble();
      atomic_write_file(checkpoint_path, to_shard_json(run));
    }
    if (on_item) on_item(computed);
  });

  assemble();
  return run;
}

BatchResult merge_shards(const std::vector<ShardRun>& shards) {
  return tally(merge_records(shards));
}

}  // namespace rtcad
