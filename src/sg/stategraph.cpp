#include "sg/stategraph.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "util/workpool.hpp"

namespace rtcad {

namespace {

// Below this many edges build() runs the excitation sweep sequentially
// whatever SgOptions::threads says: the sweep is a pure array walk, so tiny
// graphs would spend more on spawning workers than on the work.
constexpr int kMinParallelEdges = 1 << 15;

// Enabled sets the explore loop's ring holds before it first doubles.
constexpr std::size_t kInitialMaskSets = 64;
static_assert(std::has_single_bit(kInitialMaskSets));

// Open-addressed, linear-probe visited table for the reachability hot path.
// A state is the packed pair (marking, code); during exploration the code is
// carried as a switching-parity word determined by the marking (two paths
// reaching one marking with different parities is the consistency error, not
// two distinct states), so the table keys on the marking, and the parity a
// state keeps in its code field until build() applies v0 completes the
// packed key. The marking bytes live once in the graph's MarkingArena
// (slot == state id during a build), so a slot is 8 bytes: the high half of
// the row's hash as a tag, and the state id. A probe compares one arena row
// only on a tag hit. Growing frees the old slots before it allocates the new
// ones, then re-inserts arena rows 0..size-1 in id order, so no two tables
// are ever held at once.
class VisitedTable {
 public:
  /// Start loading the slot a row with hash `h` probes first.
  void prefetch(std::uint64_t h) const {
    __builtin_prefetch(slots_.data() + (static_cast<std::size_t>(h) & mask_));
  }

  /// Look up the marking bytes `m` (with precomputed hash `h`); insert `id`
  /// if absent. Returns {resident id, inserted}. Every id inserted before
  /// this call must have its row in `arena` by now: growing re-reads them.
  std::pair<int, bool> find_or_insert(const std::uint8_t* m, std::uint64_t h,
                                      int id, const MarkingArena& arena) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow(arena);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (slots_[i].id >= 0) {
      if (slots_[i].tag == tag &&
          arena.row_equals(static_cast<std::uint32_t>(slots_[i].id), m))
        return {slots_[i].id, false};
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{tag, id};
    ++size_;
    return {id, true};
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    int id = -1;
  };
  static constexpr std::size_t kInitialSlots = 1024;

  // Double the table from the arena's rows, in blocks: hash and prefetch a
  // block's slots, then place the block, as the explore loop's two passes
  // do.
  void grow(const MarkingArena& arena) {
    RTCAD_ASSERT(arena.size() >= size_);
    const std::size_t n = 2 * slots_.size();
    slots_ = std::vector<Slot>();  // free the old slots first
    slots_.resize(n);
    mask_ = n - 1;
    const auto stride = static_cast<std::size_t>(arena.stride());
    constexpr std::size_t kBlock = 32;
    std::uint64_t hashes[kBlock] = {};
    for (std::size_t begin = 0; begin < size_; begin += kBlock) {
      const std::size_t end = std::min(size_, begin + kBlock);
      for (std::size_t id = begin; id < end; ++id) {
        hashes[id - begin] =
            marking_hash(arena.row(static_cast<std::uint32_t>(id)), stride);
        prefetch(hashes[id - begin]);
      }
      for (std::size_t id = begin; id < end; ++id) {
        const std::uint64_t h = hashes[id - begin];
        std::size_t i = static_cast<std::size_t>(h) & mask_;
        while (slots_[i].id >= 0) i = (i + 1) & mask_;
        slots_[i] = Slot{static_cast<std::uint32_t>(h >> 32),
                         static_cast<int>(id)};
      }
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  std::size_t mask_ = kInitialSlots - 1;
  std::size_t size_ = 0;
};

// The explore loop's error for a signal whose initial value two firings
// infer differently. Kept out of the loop, which only tests for it.
[[noreturn]] void throw_contradictory(const Stg& stg, int signal) {
  throw SpecError("STG '" + stg.name() + "' is inconsistent: signal '" +
                  stg.signal(signal).name +
                  "' requires contradictory initial values");
}

// The explore loop's token game, compiled once per build() against the
// arena it runs on. Both games keep one contract: enabled(row, t) is the
// firing rule, and fire(row, t, next), called only for a transition
// enabled(row, t) has passed, writes the successor row into `next` without
// re-checking that precondition. fire() returns -1, or the first place the
// firing would take past the row format's token bound (leaving `next`
// unfinished); it never throws, so the explore loop decides when that
// counts. A row is the arena's stride() bytes, read as Words.

// Bit rows for 1-safe nets: a pre and a post mask per transition, side by
// side in one array. Their bound is one token a place.
class BitGame {
 public:
  using Word = std::uint64_t;
  static constexpr MarkingArena::Format kFormat = MarkingArena::Format::kBits;

  BitGame(const Stg& stg, const MarkingArena& arena)
      : width_(arena.stride() / 8),
        masks_(2 * static_cast<std::size_t>(stg.num_transitions()) * width_) {
    // The arena writes the masks, so the bit layout stays arena.hpp's
    // alone. A repeated arc (which validate() rejects) fails its
    // precondition.
    auto* out = reinterpret_cast<std::uint8_t*>(masks_.data());
    for (int t = 0; t < stg.num_transitions(); ++t) {
      arena.encode_set(stg.transition(t).pre, out);
      arena.encode_set(stg.transition(t).post, out + arena.stride());
      out += 2 * arena.stride();
    }
  }

  bool enabled(const Word* row, int t) const {
    const Word* pre = masks_.data() + 2 * static_cast<std::size_t>(t) * width_;
    for (int w = 0; w < width_; ++w) {
      if ((row[w] & pre[w]) != pre[w]) return false;
    }
    return true;
  }

  int fire(const Word* row, int t, Word* next) const {
    const Word* pre = masks_.data() + 2 * static_cast<std::size_t>(t) * width_;
    const Word* post = pre + width_;
    for (int w = 0; w < width_; ++w) {
      const Word rest = row[w] & ~pre[w];
      if (const Word twice = rest & post[w])
        return 64 * w + std::countr_zero(twice);
      next[w] = rest | post[w];
    }
    return -1;
  }

 private:
  int width_;
  std::vector<Word> masks_;  ///< per transition: pre words, then post words
};

// Byte rows (one token count per place, bound 255), played on the Stg's own
// place lists in arc order, so the place fire() reports is the one
// Stg::fire() names.
class ByteGame {
 public:
  using Word = std::uint8_t;
  static constexpr MarkingArena::Format kFormat = MarkingArena::Format::kBytes;

  ByteGame(const Stg& stg, const MarkingArena& arena)
      : stg_(stg), width_(arena.stride()) {}

  bool enabled(const Word* row, int t) const {
    for (int p : stg_.transition(t).pre) {
      if (row[p] == 0) return false;
    }
    return true;
  }

  int fire(const Word* row, int t, Word* next) const {
    std::copy_n(row, width_, next);
    for (int p : stg_.transition(t).pre) --next[p];
    for (int p : stg_.transition(t).post) {
      if (next[p] == 255) return p;
      ++next[p];
    }
    return -1;
  }

 private:
  const Stg& stg_;
  int width_;
};

// Enabled sets: a state's set has bit t % 64 of word t / 64 set when
// transition t is enabled there. Firing t moves tokens only on pre(t) and
// post(t), so only the transitions consuming from one of those places can
// be enabled on one side of the firing and not on the other. Writes that
// set, read off StgPlace::post, as `words` words per transition at `out`.
void write_affected(const Stg& stg, std::size_t words, std::uint64_t* out) {
  for (int t = 0; t < stg.num_transitions(); ++t, out += words) {
    for (const std::vector<int>* places :
         {&stg.transition(t).pre, &stg.transition(t).post}) {
      for (int p : *places) {
        for (int u : stg.place(p).post)
          out[u / 64] |= std::uint64_t{1} << (u % 64);
      }
    }
  }
}

}  // namespace

StateGraph StateGraph::build(const Stg& stg, const SgOptions& opts) {
  RTCAD_EXPECTS(stg.num_signals() <= Stg::kMaxSignals);
  StateGraph sg;
  sg.stg_ = stg;

  // Phase 1: explore markings, assigning each a parity vector
  // (bit s = number of s-transitions fired along the discovery path, mod 2)
  // and collecting constraints on the initial values v0. State ids are
  // assigned in BFS discovery order and the frontier is consumed in id
  // order, so the out-edges of each state are emitted consecutively — the
  // flat CSR arrays fill in their final order with no sorting pass.
  //
  // A net whose initial marking has at most one token per place is
  // explored on bit rows. Its first firing that would put a second token
  // on a place abandons that attempt, and the net is explored again from
  // scratch on byte rows. Both explorations fire the same transitions in
  // the same order up to that firing, so the graph and any error are the
  // same either way.
  InitialValues v0;
  bool one_safe = true;
  for (int p = 0; p < stg.num_places(); ++p)
    one_safe = one_safe && stg.place(p).initial_tokens <= 1;
  if (!one_safe || !sg.explore<BitGame>(opts, &v0))
    sg.explore<ByteGame>(opts, &v0);

  // Signals with an explicitly declared initial value win over inference
  // only when inference produced no constraint.
  std::uint64_t v0_value = v0.value;
  for (int s = 0; s < stg.num_signals(); ++s) {
    if (!(v0.known >> s & 1) && stg.signal(s).initial_value == 1)
      v0_value |= std::uint64_t{1} << s;
  }

  // Phase 2: final codes (exploration left each state's parity there).
  for (SgState& state : sg.arrays_->states) state.code ^= v0_value;

  sg.recompute_excitation(sg.num_edges() >= kMinParallelEdges ? opts.threads
                                                              : 1);
  return sg;
}

template <typename Game>
bool StateGraph::explore(const SgOptions& opts, InitialValues* v0_out) {
  using Word = typename Game::Word;
  const Stg& stg = stg_;
  arena_ = std::make_shared<MarkingArena>(stg.num_places(), Game::kFormat);
  MarkingArena& arena = *arena_;
  const Game game(stg, arena);
  const std::size_t stride = static_cast<std::size_t>(arena.stride());
  // A state's code holds its switching parity until build() applies v0.
  std::vector<SgState>& states = arrays_->states;
  std::vector<int>& out_row = arrays_->out_row;
  std::vector<int>& edge_transition = arrays_->edge_transition;
  std::vector<int>& edge_successor = arrays_->edge_successor;
  states.clear();
  out_row.clear();
  edge_transition.clear();
  edge_successor.clear();
  level_sizes_.clear();
  // The initial values inferred so far (see InitialValues), held here and
  // stored to *v0_out when the exploration completes.
  std::uint64_t v0_known = 0, v0_value = 0;

  // One scratch buffer for the whole exploration, in five parts:
  //  * `affected`: each transition's affected set (see write_affected);
  //  * `labels`: two words per transition, its signal's bit and that bit
  //    again if it is a falling edge (both 0 if it is silent), so pass 2
  //    checks initial values and flips parities without reading the Stg;
  //  * `enabled` and `row`: the enabled set and the row of the state being
  //    expanded, copied out as words;
  //  * `fired`: pass 1's entries, one per enabled transition: the
  //    transition, the successor row's hash, then the row.
  const int num_transitions = stg.num_transitions();
  const std::size_t mask_words = (num_transitions + 63) / 64;
  const std::size_t row_words = (stride + 7) / 8;
  const std::size_t entry_words = 2 + row_words;
  std::vector<std::uint64_t> scratch((num_transitions + 1) * mask_words +
                                     2 * num_transitions + row_words +
                                     num_transitions * entry_words);
  std::uint64_t* const affected = scratch.data();
  std::uint64_t* const labels = affected + num_transitions * mask_words;
  std::uint64_t* const enabled = labels + 2 * num_transitions;
  Word* const row = reinterpret_cast<Word*>(enabled + mask_words);
  auto* const row_bytes = reinterpret_cast<std::uint8_t*>(row);
  std::uint64_t* const fired = enabled + mask_words + row_words;
  write_affected(stg, mask_words, affected);
  for (int t = 0; t < num_transitions; ++t) {
    if (const auto& label = stg.transition(t).label) {
      labels[2 * t] = std::uint64_t{1} << label->signal;
      if (label->pol == Polarity::kFall) labels[2 * t + 1] = labels[2 * t];
    }
  }

  // The enabled sets of the states discovered but not yet expanded, in id
  // order: a ring of `ring_sets` sets (a power of two) of mask_words words,
  // the oldest at `ring_head`. A set is derived once, when its state is
  // discovered, and leaves the ring when the state is expanded. The ring
  // starts with room for kInitialMaskSets sets, so a small graph allocates
  // it once, and doubles when full.
  std::size_t ring_sets = kInitialMaskSets, ring_head = 0, ring_count = 0;
  std::vector<std::uint64_t> ring(ring_sets * mask_words);
  const auto push_set = [&]() -> std::uint64_t* {
    if (ring_count == ring_sets) {
      std::vector<std::uint64_t> bigger(2 * ring_sets * mask_words);
      for (std::size_t i = 0; i < ring_count; ++i)
        std::copy_n(ring.data() + ((ring_head + i) & (ring_sets - 1)) *
                                      mask_words,
                    mask_words, bigger.data() + i * mask_words);
      ring = std::move(bigger);
      ring_sets *= 2;
      ring_head = 0;
    }
    return ring.data() +
           ((ring_head + ring_count++) & (ring_sets - 1)) * mask_words;
  };

  VisitedTable index;
  arena.encode(stg.initial_marking(), row_bytes);
  states.push_back(SgState{0, arena.append(row_bytes)});
  {
    const auto seeded = index.find_or_insert(
        row_bytes, marking_hash(row_bytes, stride), 0, arena);
    RTCAD_ASSERT(seeded.second);
  }
  std::uint64_t* const initial_set = push_set();
  for (int t = 0; t < num_transitions; ++t) {
    if (game.enabled(row, t))
      initial_set[t / 64] |= std::uint64_t{1} << (t % 64);
  }

  // BFS level tracking: ids are assigned in discovery order, so each level
  // is a contiguous id range and crossing `level_boundary` means every
  // state of the current level has been expanded.
  std::size_t level_begin = 0, level_boundary = 1;

  // Cancellation is checked once per BFS round: here before round 0, then
  // at each level boundary below.
  if (opts.cancel) opts.cancel->check("state-graph build");

  for (int si = 0; si < static_cast<int>(states.size()); ++si) {
    if (static_cast<std::size_t>(si) == level_boundary) {
      level_sizes_.push_back(static_cast<int>(level_boundary - level_begin));
      level_begin = level_boundary;
      level_boundary = states.size();
      if (opts.cancel) opts.cancel->check("state-graph build");
    }
    out_row.push_back(static_cast<int>(edge_transition.size()));
    std::copy_n(arena.row(states[si].slot), stride, row_bytes);
    std::copy_n(ring.data() + ring_head * mask_words, mask_words, enabled);
    ring_head = (ring_head + 1) & (ring_sets - 1);
    --ring_count;
    const std::uint64_t par = states[si].code;

    // Pass 1: fire every enabled transition, in ascending order, into an
    // entry, and prefetch each successor's visited-table slot, so pass 2's
    // probes find their slots loaded instead of stalling on each in turn.
    // A firing past the token bound ends the pass; pass 2 stops there too.
    std::size_t count = 0;
    int overflow = -1;
    for (std::size_t w = 0; w < mask_words && overflow < 0; ++w) {
      for (std::uint64_t bits = enabled[w]; bits != 0; bits &= bits - 1) {
        std::uint64_t* entry = fired + count++ * entry_words;
        const int t = static_cast<int>(64 * w) + std::countr_zero(bits);
        entry[0] = static_cast<std::uint64_t>(t);
        overflow = game.fire(row, t, reinterpret_cast<Word*>(entry + 2));
        if (overflow >= 0) break;
        entry[1] = marking_hash(
            reinterpret_cast<const std::uint8_t*>(entry + 2), stride);
        index.prefetch(entry[1]);
      }
    }

    // Pass 2: probe, insert and append edges in the same order, so state
    // ids, the CSR and every error come out as from firing one transition
    // at a time.
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t* entry = fired + k * entry_words;
      const int t = static_cast<int>(entry[0]);
      // v(s) at this state is v0(s) ^ parity(s), and s+ needs v = 0, s-
      // v = 1: so firing t requires v0(s) = parity(s) ^ [t is s-].
      const std::uint64_t bit = labels[2 * t];
      const std::uint64_t required = (par ^ labels[2 * t + 1]) & bit;
      if ((v0_value ^ required) & v0_known & bit)
        throw_contradictory(stg, std::countr_zero(bit));
      v0_known |= bit;
      v0_value |= required;
      const std::uint64_t next_par = par ^ bit;
      if (overflow >= 0 && k + 1 == count) {
        // On bit rows the net is not 1-safe, and build() starts over on
        // byte rows; on byte rows it is past the 255-token bound.
        if constexpr (Game::kFormat == MarkingArena::Format::kBits) {
          return false;
        } else {
          throw SpecError("place '" + stg.place(overflow).name +
                          "' exceeds token bound");
        }
      }
      const auto* next = reinterpret_cast<const std::uint8_t*>(entry + 2);
      const int candidate_id = static_cast<int>(states.size());
      const auto [succ_id, inserted] =
          index.find_or_insert(next, entry[1], candidate_id, arena);
      if (inserted) {
        if (states.size() >= opts.max_states)
          throw SpecError("state graph of '" + stg.name() + "' exceeds " +
                          std::to_string(opts.max_states) + " states");
        states.push_back(SgState{next_par, arena.append(next)});
        // Its enabled set is this state's, with the transitions that t
        // affects tested again on the new row.
        const std::uint64_t* affects = affected + t * mask_words;
        const auto* next_row = reinterpret_cast<const Word*>(entry + 2);
        std::uint64_t* const set = push_set();
        for (std::size_t w = 0; w < mask_words; ++w) {
          set[w] = enabled[w] & ~affects[w];
          for (std::uint64_t bits = affects[w]; bits != 0; bits &= bits - 1) {
            const int u = static_cast<int>(64 * w) + std::countr_zero(bits);
            if (game.enabled(next_row, u)) set[w] |= bits & -bits;
          }
        }
      } else if (states[succ_id].code != next_par) {
        throw SpecError("STG '" + stg.name() +
                        "' is inconsistent: switching parity differs "
                        "between paths to the same marking");
      }
      edge_transition.push_back(t);
      edge_successor.push_back(succ_id);
    }
  }
  out_row.push_back(static_cast<int>(edge_transition.size()));
  level_sizes_.push_back(static_cast<int>(states.size() - level_begin));
  *v0_out = InitialValues{v0_known, v0_value};
  return true;
}

StateGraph::Arrays& StateGraph::own_arrays() {
  if (arrays_.use_count() > 1) arrays_ = std::make_shared<Arrays>(*arrays_);
  return *arrays_;
}

void StateGraph::rebuild_reverse_csr(int /*threads*/) {
  Arrays& a = own_arrays();
  const int n = num_states();
  const int m = num_edges();
  a.in_row.assign(n + 1, 0);
  a.in_transition.resize(m);
  a.in_source.resize(m);

  // Transpose by counting sort: one pass to count in-degrees, a prefix sum,
  // one pass to scatter. Entries for a given target state keep CSR order of
  // their sources, so the transpose is deterministic.
  for (int e = 0; e < m; ++e) ++a.in_row[a.edge_successor[e] + 1];
  for (int s = 0; s < n; ++s) a.in_row[s + 1] += a.in_row[s];
  std::vector<int> cursor(a.in_row.begin(), a.in_row.end() - 1);
  for (int s = 0; s < n; ++s) {
    for (int e = a.out_row[s]; e < a.out_row[s + 1]; ++e) {
      const int slot = cursor[a.edge_successor[e]]++;
      a.in_transition[slot] = a.edge_transition[e];
      a.in_source[slot] = s;
    }
  }
}

void StateGraph::recompute_excitation(int threads) {
  Arrays& a = own_arrays();
  const int n = num_states();
  std::vector<std::uint64_t>& excited_rise = a.excited_rise;
  std::vector<std::uint64_t>& excited_fall = a.excited_fall;
  excited_rise.assign(n, 0);
  excited_fall.assign(n, 0);
  // Direct enablement: a linear sweep over the flat edge array. Each state
  // writes only its own masks, so the chunked parallel sweep is trivially
  // deterministic.
  const auto direct_sweep = [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      for (int e = a.out_row[s]; e < a.out_row[s + 1]; ++e) {
        if (const auto& label = stg_.transition(a.edge_transition[e]).label) {
          const std::uint64_t bit = std::uint64_t{1} << label->signal;
          if (label->pol == Polarity::kRise)
            excited_rise[s] |= bit;
          else
            excited_fall[s] |= bit;
        }
      }
    }
  };
  const int workers = WorkPool::effective_threads(threads);
  if (workers > 1) {
    // A few even contiguous chunks per worker, so a skewed chunk cannot
    // straggle the sweep.
    const std::size_t size = static_cast<std::size_t>(n);
    const std::size_t chunks = std::min<std::size_t>(
        std::max<std::size_t>(size, 1), 4 * static_cast<std::size_t>(workers));
    WorkPool pool(workers);
    pool.for_each_index(chunks, [&](std::size_t c) {
      direct_sweep(c * size / chunks, (c + 1) * size / chunks);
    });
  } else {
    direct_sweep(0, static_cast<std::size_t>(n));
  }

  // Close backwards over silent edges: if σ --ε--> σ' and σ' excites e,
  // then σ already excites e (the circuit cannot observe ε). Specs without
  // any silent transition skip the closure outright — the direct sweep is
  // already the fixpoint. The worklist itself stays sequential: silent
  // edges are rare and the propagation is a tiny fraction of the sweep.
  bool any_silent = false;
  for (int t = 0; t < stg_.num_transitions() && !any_silent; ++t)
    any_silent = stg_.transition(t).is_silent();
  if (!any_silent) return;
  // Worklist over the reverse CSR, derived here if the graph has none yet:
  // when a state's masks grow, only its silent predecessors can be
  // affected — no repeated whole-graph sweeps.
  if (!has_transpose()) rebuild_reverse_csr();
  std::vector<int> worklist;
  std::vector<char> queued(n, 1);
  worklist.reserve(n);
  for (int s = n - 1; s >= 0; --s) worklist.push_back(s);
  while (!worklist.empty()) {
    const int s = worklist.back();
    worklist.pop_back();
    queued[s] = 0;
    for (int e = a.in_row[s]; e < a.in_row[s + 1]; ++e) {
      if (!stg_.transition(a.in_transition[e]).is_silent()) continue;
      const int p = a.in_source[e];
      const std::uint64_t nr = excited_rise[p] | excited_rise[s];
      const std::uint64_t nf = excited_fall[p] | excited_fall[s];
      if (nr != excited_rise[p] || nf != excited_fall[p]) {
        excited_rise[p] = nr;
        excited_fall[p] = nf;
        if (!queued[p]) {
          queued[p] = 1;
          worklist.push_back(p);
        }
      }
    }
  }
}

StateGraph StateGraph::filtered(
    const std::function<bool(int state, int transition)>& keep_edge) const {
  StateGraph out;
  out.stg_ = stg_;
  // The reduced graph shares the root arena: its states keep their root
  // slots, so a reduction chain adds no marking copies at all.
  out.arena_ = arena_;

  // Single counting pass: BFS from the initial state over the kept edges,
  // assigning new ids in discovery order. The frontier is consumed in
  // new-id order, so the surviving edges append to the output CSR already
  // grouped by source row — this walks int arrays only (no marking
  // re-exploration, no hashing) and calls `keep_edge` exactly once per
  // edge of a surviving state. Successors are recorded as old ids and
  // remapped in one sweep once every new id is known.
  const Arrays& src = *arrays_;
  Arrays& dst = *out.arrays_;
  std::vector<int> new_id(src.states.size(), -1);
  std::vector<int> order;  // new id -> old id, in BFS discovery order
  order.push_back(0);
  new_id[0] = 0;
  dst.out_row.push_back(0);
  for (std::size_t qi = 0; qi < order.size(); ++qi) {
    const int old_s = order[qi];
    for (int e = src.out_row[old_s]; e < src.out_row[old_s + 1]; ++e) {
      if (!keep_edge(old_s, src.edge_transition[e])) continue;
      const int to = src.edge_successor[e];
      if (new_id[to] < 0) {
        new_id[to] = static_cast<int>(order.size());
        order.push_back(to);
      }
      dst.edge_transition.push_back(src.edge_transition[e]);
      dst.edge_successor.push_back(to);
    }
    dst.out_row.push_back(static_cast<int>(dst.edge_transition.size()));
  }
  for (int& to : dst.edge_successor) to = new_id[to];
  dst.states.reserve(order.size());
  dst.old_state.reserve(order.size());
  for (const int old_s : order) {
    dst.states.push_back(src.states[old_s]);
    dst.old_state.push_back(old_state_of(old_s));
  }
  out.recompute_excitation();
  return out;
}

StateGraph StateGraph::filtered_keep_all() const {
  StateGraph out = *this;
  out.level_sizes_ = {};
  return out;
}

bool StateGraph::edge_enabled(int state, const Edge& e) const {
  for (const auto& [t, to] : out_edges(state)) {
    const auto& label = stg_.transition(t).label;
    if (label && *label == e) return true;
  }
  return false;
}

int StateGraph::successor(int state, const Edge& e) const {
  for (const auto& [t, to] : out_edges(state)) {
    const auto& label = stg_.transition(t).label;
    if (label && *label == e) return to;
  }
  return -1;
}

int StateGraph::successor_by_transition(int state, int transition) const {
  for (const auto& [t, to] : out_edges(state)) {
    if (t == transition) return to;
  }
  return -1;
}

bool identical_graphs(const StateGraph& a, const StateGraph& b) {
  if (a.num_states() != b.num_states() || a.num_edges() != b.num_edges() ||
      a.level_sizes() != b.level_sizes())
    return false;
  for (int s = 0; s < a.num_states(); ++s) {
    if (a.code(s) != b.code(s) || a.old_state_of(s) != b.old_state_of(s) ||
        a.excited_rise_mask(s) != b.excited_rise_mask(s) ||
        a.excited_fall_mask(s) != b.excited_fall_mask(s) ||
        a.out_degree(s) != b.out_degree(s) ||
        a.marking_copy(s) != b.marking_copy(s))
      return false;
    for (int i = 0; i < a.out_degree(s); ++i) {
      if (a.out_edges(s)[i].transition != b.out_edges(s)[i].transition ||
          a.out_edges(s)[i].state != b.out_edges(s)[i].state)
        return false;
    }
  }
  return true;
}

}  // namespace rtcad
