// Differential test of StateGraph::build() against a reference explorer,
// the way test_analysis_oracles.cpp keeps the old analyses.
//
// build() runs its own token game on arena rows: bit masks for 1-safe nets,
// with a restart on byte rows at the first firing that puts a second token
// on a place. The reference is the naive BFS the flow started from: a
// std::map<Marking, int> visited set, Stg::enabled_transitions and
// Stg::fire, and the same parity and initial-value rules. Both must agree
// on the state count, every decoded marking, every code, every out-edge
// list and the BFS level sizes, or fail with the same SpecError message.
//
// The inputs cover both row formats and the switch between them: the spec
// corpus, 200 seeded random specs at two state caps (including
// token-bound, inconsistency and state-cap errors), ring9 (the bit attempt
// is abandoned early), fifo_2slot (byte rows from the initial marking),
// pipeline12, pipeline16 and ring16 (arrays past GrowBuf's mapping
// threshold, on bit and byte rows), a 1-safe net of more than 128 places
// and transitions whose tokens cross the 64-bit word boundaries of a bit
// row and whose transition ids cross those of an enabled set, and a wider
// one that fires transition ids past 255.
//
// build() expands a state in two passes: it fires every enabled transition
// first, then probes and inserts the successors in transition order. Two
// hand-built nets pin that errors still come in that order when one state
// has a successor past the state cap and another past the token bound, and
// a net with a self-loop place pins the enabled sets build() carries from
// state to state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "generated_stgs.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

struct ReferenceGraph {
  std::vector<Marking> markings;
  std::vector<std::uint64_t> codes;
  std::vector<std::vector<std::pair<int, int>>> out;  // (transition, succ)
  std::vector<int> level_sizes;
  std::string error;  ///< SpecError message; empty when the build succeeds
};

ReferenceGraph reference_build(const Stg& stg, std::size_t max_states) {
  ReferenceGraph g;
  std::map<Marking, int> index;
  std::vector<std::uint64_t> parity;
  std::vector<int> depth;
  std::vector<signed char> v0(64, -1);
  g.markings.push_back(stg.initial_marking());
  index[g.markings[0]] = 0;
  parity.push_back(0);
  depth.push_back(0);
  try {
    for (std::size_t si = 0; si < g.markings.size(); ++si) {
      g.out.emplace_back();
      const Marking m = g.markings[si];
      for (int t : stg.enabled_transitions(m)) {
        std::uint64_t next_par = parity[si];
        if (const auto& label = stg.transition(t).label) {
          // v(s) = v0(s) ^ parity(s); s+ needs v = 0, s- needs v = 1.
          const int pre_parity =
              static_cast<int>((parity[si] >> label->signal) & 1);
          const int required = label->pol == Polarity::kRise
                                   ? pre_parity
                                   : 1 - pre_parity;
          if (v0[label->signal] == -1) {
            v0[label->signal] = static_cast<signed char>(required);
          } else if (v0[label->signal] != required) {
            throw SpecError("STG '" + stg.name() + "' is inconsistent: " +
                            "signal '" + stg.signal(label->signal).name +
                            "' requires contradictory initial values");
          }
          next_par ^= std::uint64_t{1} << label->signal;
        }
        const Marking next = stg.fire(m, t);
        auto it = index.find(next);
        if (it == index.end()) {
          if (g.markings.size() >= max_states)
            throw SpecError("state graph of '" + stg.name() + "' exceeds " +
                            std::to_string(max_states) + " states");
          it = index.emplace(next, static_cast<int>(g.markings.size())).first;
          g.markings.push_back(next);
          parity.push_back(next_par);
          depth.push_back(depth[si] + 1);
        } else if (parity[it->second] != next_par) {
          throw SpecError("STG '" + stg.name() +
                          "' is inconsistent: switching parity differs "
                          "between paths to the same marking");
        }
        g.out[si].emplace_back(t, it->second);
      }
    }
  } catch (const SpecError& e) {
    g.error = e.what();
    return g;
  }
  std::uint64_t v0_value = 0;
  for (int s = 0; s < stg.num_signals(); ++s) {
    if (v0[s] == 1 || (v0[s] == -1 && stg.signal(s).initial_value == 1))
      v0_value |= std::uint64_t{1} << s;
  }
  for (std::uint64_t p : parity) g.codes.push_back(v0_value ^ p);
  g.level_sizes.assign(static_cast<std::size_t>(depth.back()) + 1, 0);
  for (int d : depth) ++g.level_sizes[static_cast<std::size_t>(d)];
  return g;
}

/// Whether some reachable marking holds two tokens on a place — the graphs
/// build() keeps in byte rows.
bool has_multi_token_marking(const ReferenceGraph& g) {
  for (const Marking& m : g.markings) {
    if (std::any_of(m.begin(), m.end(), [](std::uint8_t k) { return k > 1; }))
      return true;
  }
  return false;
}

/// Compare build() against the reference; returns the reference so callers
/// can classify the case.
ReferenceGraph expect_same_build(const Stg& stg, const std::string& context,
                                 std::size_t max_states = std::size_t{1}
                                                          << 20) {
  const ReferenceGraph ref = reference_build(stg, max_states);
  SgOptions opts;
  opts.max_states = max_states;
  try {
    const StateGraph sg = StateGraph::build(stg, opts);
    EXPECT_EQ(ref.error, "") << context;
    if (!ref.error.empty()) return ref;
    EXPECT_EQ(sg.num_states(), static_cast<int>(ref.markings.size()))
        << context;
    EXPECT_EQ(sg.level_sizes(), ref.level_sizes) << context;
    if (sg.num_states() != static_cast<int>(ref.markings.size())) return ref;
    // Stop at the first differing state: the rest would only repeat it.
    for (int s = 0; s < sg.num_states() && !::testing::Test::HasFailure();
         ++s) {
      const auto i = static_cast<std::size_t>(s);
      EXPECT_EQ(sg.marking_copy(s), ref.markings[i])
          << context << ", state " << s;
      EXPECT_EQ(sg.code(s), ref.codes[i]) << context << ", state " << s;
      std::vector<std::pair<int, int>> out;
      for (const auto& [t, to] : sg.out_edges(s)) out.emplace_back(t, to);
      EXPECT_EQ(out, ref.out[i]) << context << ", state " << s;
    }
  } catch (const SpecError& e) {
    EXPECT_EQ(std::string(e.what()), ref.error) << context;
  }
  return ref;
}

TEST(BuildOracle, CorpusMatchesReference) {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(RTCAD_SPECS_DIR)) {
    if (entry.path().extension() == ".g")
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_EQ(paths.size(), 19u);
  int byte_rows = 0;
  for (const std::string& path : paths) {
    const ReferenceGraph ref = expect_same_build(parse_stg_file(path), path);
    EXPECT_EQ(ref.error, "") << path;
    byte_rows += has_multi_token_marking(ref);
  }
  EXPECT_GE(byte_rows, 1) << "fifo_2slot should need byte rows";
}

TEST(BuildOracle, RandomSpecsMatchReference) {
  // At the fuzz suite's 4096-state cap no random spec reaches the cap (the
  // largest graph has a few dozen states, the token pumps fail on the bound
  // first); a cap of 12 turns the bigger graphs into state-cap errors.
  int built = 0, multi_token = 0, token_bound = 0, inconsistent = 0,
      state_cap = 0;
  for (const std::size_t cap : {std::size_t{4096}, std::size_t{12}}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      const ReferenceGraph ref = expect_same_build(
          random_stg(seed),
          "seed " + std::to_string(seed) + ", cap " + std::to_string(cap),
          cap);
      if (ref.error.empty()) {
        ++built;
        multi_token += has_multi_token_marking(ref);
      }
      token_bound += ref.error.find("token bound") != std::string::npos;
      inconsistent += ref.error.find("inconsistent") != std::string::npos;
      state_cap += ref.error.find("exceeds " + std::to_string(cap) +
                                  " states") != std::string::npos;
    }
  }
  // The generator must keep reaching every regime the oracle guards.
  EXPECT_GE(built, 20);
  EXPECT_GE(multi_token, 1);
  EXPECT_GE(token_bound, 1);
  EXPECT_GE(inconsistent, 1);
  EXPECT_GE(state_cap, 1);
}

TEST(BuildOracle, GeneratedSpecsMatchReference) {
  // ring9 leaves bit rows after a few states; pipeline12 never does.
  EXPECT_TRUE(has_multi_token_marking(expect_same_build(ring_stg(9), "ring9")));
  EXPECT_FALSE(has_multi_token_marking(
      expect_same_build(pipeline_stg(12), "pipeline12")));
  // Graphs whose arrays grow past GrowBuf's mapping threshold, one per row
  // format: pipeline16 (bit rows, 131,072 states, 622,592 edges, so 2.5 MB
  // per edge array) and ring16 (byte rows, 112,606 states, a 7.2 MB arena).
  EXPECT_FALSE(has_multi_token_marking(
      expect_same_build(pipeline_stg(16), "pipeline16")));
  EXPECT_TRUE(
      has_multi_token_marking(expect_same_build(ring_stg(16), "ring16")));
}

/// Two rings, one signal each, with `pad` silent transitions after each
/// signal edge: a ring of 2 + 2 * pad transitions and places, and the
/// rings interleave freely ((2 + 2 * pad)^2 states).
Stg padded_rings_stg(int pad) {
  Stg stg("padded" + std::to_string(pad));
  for (const char* name : {"a", "b"}) {
    const int sig = stg.add_signal(name, SignalKind::kOutput);
    std::vector<int> ring;
    for (const Polarity pol : {Polarity::kRise, Polarity::kFall}) {
      ring.push_back(stg.add_transition(Edge{sig, pol}));
      for (int i = 0; i < pad; ++i)
        ring.push_back(stg.add_transition(std::nullopt));
    }
    for (std::size_t i = 0; i < ring.size(); ++i)
      stg.add_arc_tt(ring[i], ring[(i + 1) % ring.size()],
                     i + 1 == ring.size() ? 1 : 0);
  }
  stg.validate();
  return stg;
}

TEST(BuildOracle, WordBoundariesMatchReference) {
  // 152 places make 3-word bit rows, ring a's token crosses places 63/64
  // and ring b's crosses 127/128.
  const Stg stg = padded_rings_stg(37);
  ASSERT_GT(stg.num_places(), 128);
  // 152 transitions make 3-word enabled sets, and the transitions enabled
  // together cross ids 63/64 and 127/128 as the tokens move.
  ASSERT_GT(stg.num_transitions(), 128);
  const ReferenceGraph ref = expect_same_build(stg, "padded37");
  EXPECT_EQ(ref.markings.size(), 76u * 76u);
  EXPECT_FALSE(has_multi_token_marking(ref));
}

TEST(BuildOracle, TransitionIdsPast255MatchReference) {
  // An edge stores its transition id in 16 bits. Ring b's 142 transitions
  // are ids 142..283, so its edges carry ids an 8-bit type or a truncating
  // cast would wrap onto ring a's.
  const Stg stg = padded_rings_stg(70);
  const ReferenceGraph ref = expect_same_build(stg, "padded70");
  EXPECT_EQ(ref.markings.size(), 142u * 142u);
  int max_fired = 0;
  for (const auto& edges : ref.out) {
    for (const auto& [t, to] : edges) max_fired = std::max(max_fired, t);
  }
  EXPECT_EQ(max_fired, stg.num_transitions() - 1);
  EXPECT_GT(max_fired, 255);
}

/// A net whose second state enables two silent transitions that both
/// consume place `a`: `to_new` leads to a new marking (past a cap of two
/// states), and `to_full` adds a token to `full`, which already holds 255.
/// The one with the lower id is added first.
Stg cap_and_bound_stg(bool cap_first) {
  Stg stg(cap_first ? "cap_first" : "bound_first");
  const int start = stg.add_place("start", 1);
  const int a = stg.add_place("a");
  const int fresh = stg.add_place("fresh");
  const int full = stg.add_place("full", 255);
  const int go = stg.add_transition(std::nullopt);
  stg.add_arc_pt(start, go);
  stg.add_arc_tp(go, a);
  const int first = stg.add_transition(std::nullopt);
  const int second = stg.add_transition(std::nullopt);
  const int to_new = cap_first ? first : second;
  const int to_full = cap_first ? second : first;
  for (const int t : {to_new, to_full}) stg.add_arc_pt(a, t);
  stg.add_arc_tp(to_new, fresh);
  stg.add_arc_tp(to_full, full);
  stg.validate();
  return stg;
}

TEST(BuildOracle, DeferredErrorsMatchReference) {
  // Whichever of the two firings comes first in transition order must
  // decide the error, although build() fires both before it probes either.
  const ReferenceGraph cap_first =
      expect_same_build(cap_and_bound_stg(true), "cap_first", 2);
  EXPECT_EQ(cap_first.error, "state graph of 'cap_first' exceeds 2 states");
  const ReferenceGraph bound_first =
      expect_same_build(cap_and_bound_stg(false), "bound_first", 2);
  EXPECT_EQ(bound_first.error, "place 'full' exceeds token bound");
}

TEST(BuildOracle, SelfLoopPlaceMatchesReference) {
  // `shared` is in both the pre and the post set of a+, and b+ consumes it
  // too: firing a+ leaves b+ enabled, firing b+ disables a+ until b- puts
  // the token back. With two tokens on `shared` the net runs on byte rows
  // and b+ no longer disables a+.
  for (const std::uint8_t tokens : {1, 2}) {
    Stg stg("self_loop");
    const int a = stg.add_signal("a", SignalKind::kOutput);
    const int b = stg.add_signal("b", SignalKind::kOutput);
    const int a_rise = stg.add_transition(Edge{a, Polarity::kRise});
    const int a_fall = stg.add_transition(Edge{a, Polarity::kFall});
    const int b_rise = stg.add_transition(Edge{b, Polarity::kRise});
    const int b_fall = stg.add_transition(Edge{b, Polarity::kFall});
    stg.add_arc_tt(a_fall, a_rise, 1);
    stg.add_arc_tt(a_rise, a_fall);
    stg.add_arc_tt(b_fall, b_rise, 1);
    stg.add_arc_tt(b_rise, b_fall);
    const int shared = stg.add_place("shared", tokens);
    stg.add_arc_pt(shared, a_rise);
    stg.add_arc_tp(a_rise, shared);
    stg.add_arc_pt(shared, b_rise);
    stg.add_arc_tp(b_fall, shared);
    stg.validate();
    const std::string context = "self_loop, " + std::to_string(tokens) +
                                " token(s) on shared";
    const ReferenceGraph ref = expect_same_build(stg, context);
    EXPECT_EQ(ref.error, "") << context;
    EXPECT_EQ(ref.markings.size(), 4u) << context;
    EXPECT_EQ(has_multi_token_marking(ref), tokens == 2) << context;
  }
}

}  // namespace
}  // namespace rtcad
