// Differential tests of two state-graph passes against the straightforward
// versions they replaced, kept here as reference implementations:
//
//  * analyze() screens each state's persistency on word masks before the
//    pairwise loop, and groups code classes with a radix sort of state ids
//    keyed on the code; the reference runs the pairwise loop everywhere,
//    keeps a hash map of classes and an ordered map of signatures per
//    class, and computes each signature signal by signal through
//    target_value().
//  * The delay-class rule of generate_assumptions() skips states whose
//    excited signals span no wide enough class gap and walks the others'
//    excitation masks into one reused buffer; the reference asks excited()
//    about every signal edge of every state and builds the rationale before
//    deduplicating.
//
// Both must agree on the spec corpus, on every buildable seeded random
// spec, on ring9 (code classes with several members) and on ring18 (1000
// CSC conflicts, the report cap). None of those violates persistency, so
// the corpus runs again with its inputs re-declared as outputs, next to a
// spec whose input disables an output; pipeline12 (codes dense in their
// bits) and johnson64 (64-bit codes, several radix digits) cover the sort's
// extremes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "generated_stgs.hpp"
#include "rt/generate.hpp"
#include "sg/analysis.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

constexpr std::size_t kMaxReported = 1000;  // analyze()'s default cap

/// Reference analyze(). Classes come out in hash-map order, so with the cap
/// reached the reported subset is arbitrary; only counts compare then.
SgAnalysis reference_analyze(const StateGraph& sg) {
  const Stg& stg = sg.stg();
  SgAnalysis out;

  for (int s = 0; s < sg.num_states(); ++s) {
    for (const auto& [t, to] : sg.out_edges(s)) {
      const auto& label = stg.transition(t).label;
      if (!label) continue;
      if (stg.is_input(label->signal)) continue;
      for (const auto& [t2, to2] : sg.out_edges(s)) {
        if (t2 == t) continue;
        const auto& label2 = stg.transition(t2).label;
        if (label2 && label2->signal == label->signal) continue;
        if (!sg.excited(to2, *label)) {
          if (out.persistency.size() < kMaxReported)
            out.persistency.push_back({s, t, t2});
        }
      }
    }
  }

  std::uint64_t noninput_mask = 0;
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    if (!stg.is_input(sig)) noninput_mask |= std::uint64_t{1} << sig;
  }
  std::unordered_map<std::uint64_t, std::vector<int>> classes;
  for (int s = 0; s < sg.num_states(); ++s) classes[sg.code(s)].push_back(s);
  const auto target_mask = [&](int state) {
    std::uint64_t m = 0;
    for (int sig = 0; sig < stg.num_signals(); ++sig) {
      if (!(noninput_mask >> sig & 1)) continue;
      if (sg.target_value(state, sig)) m |= std::uint64_t{1} << sig;
    }
    return m;
  };
  for (auto& [code, members] : classes) {
    if (members.size() < 2) continue;
    ++out.usc_classes;
    std::map<std::uint64_t, int> signatures;  // signature -> first state
    for (int s : members) signatures.emplace(target_mask(s), s);
    if (signatures.size() < 2) continue;
    for (auto a = signatures.begin(); a != signatures.end(); ++a) {
      for (auto b = std::next(a); b != signatures.end(); ++b) {
        if (out.csc_conflicts.size() >= kMaxReported) break;
        out.csc_conflicts.push_back(
            {a->second, b->second, a->first ^ b->first});
      }
    }
  }
  return out;
}

int reference_delay_class(const Stg& stg, int signal) {
  switch (stg.signal(signal).kind) {
    case SignalKind::kInternal: return 0;
    case SignalKind::kOutput: return 1;
    case SignalKind::kInput: return 2;
  }
  return 2;
}

/// Reference delay-class rule: what generate_assumptions() returns when
/// ring_environment is off.
std::vector<RtAssumption> reference_rule1(const StateGraph& sg,
                                          const GenerateOptions& opts) {
  const Stg& stg = sg.stg();
  const auto key = [](const Edge& e) {
    return e.signal * 2 + (e.pol == Polarity::kRise ? 0 : 1);
  };
  std::set<std::pair<int, int>> emitted;
  std::vector<RtAssumption> out;
  const auto emit = [&](const Edge& before, const Edge& after,
                        const std::string& rationale) {
    if (emitted.count({key(after), key(before)})) return;
    if (!emitted.insert({key(before), key(after)}).second) return;
    out.push_back(
        RtAssumption{before, after, RtOrigin::kAutomatic, rationale});
  };
  for (int s = 0; s < sg.num_states(); ++s) {
    std::vector<Edge> excited;
    for (int sig = 0; sig < stg.num_signals(); ++sig) {
      for (Polarity pol : {Polarity::kRise, Polarity::kFall}) {
        if (sg.excited(s, Edge{sig, pol})) excited.push_back(Edge{sig, pol});
      }
    }
    for (const Edge& fast : excited) {
      for (const Edge& slow : excited) {
        if (fast.signal == slow.signal) continue;
        const int gap = reference_delay_class(stg, slow.signal) -
                        reference_delay_class(stg, fast.signal);
        const int required = opts.outputs_beat_inputs || opts.ring_environment
                                 ? 1
                                 : opts.margin_classes;
        if (gap < required) continue;
        emit(fast, slow,
             std::string(to_string(stg.signal(fast.signal).kind)) +
                 " gate beats " + to_string(stg.signal(slow.signal).kind) +
                 " response");
      }
    }
  }
  return out;
}

using ConflictKey = std::tuple<int, int, std::uint64_t>;

std::vector<ConflictKey> sorted_conflicts(const SgAnalysis& a) {
  std::vector<ConflictKey> keys;
  for (const CscConflict& c : a.csc_conflicts)
    keys.emplace_back(c.state_a, c.state_b, c.differing_signals);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void expect_same_analysis(const StateGraph& sg, const std::string& context) {
  SCOPED_TRACE(context);
  const SgAnalysis got = analyze(sg);
  const SgAnalysis want = reference_analyze(sg);
  ASSERT_EQ(got.persistency.size(), want.persistency.size());
  for (std::size_t i = 0; i < want.persistency.size(); ++i) {
    EXPECT_EQ(got.persistency[i].state, want.persistency[i].state);
    EXPECT_EQ(got.persistency[i].disabled_transition,
              want.persistency[i].disabled_transition);
    EXPECT_EQ(got.persistency[i].by_transition,
              want.persistency[i].by_transition);
  }
  EXPECT_EQ(got.usc_classes, want.usc_classes);
  ASSERT_EQ(got.csc_conflicts.size(), want.csc_conflicts.size());
  if (want.csc_conflicts.size() < kMaxReported) {
    EXPECT_EQ(sorted_conflicts(got), sorted_conflicts(want));
  }
  // The documented order: by code, so a capped list is a prefix of it.
  for (std::size_t i = 1; i < got.csc_conflicts.size(); ++i) {
    EXPECT_LE(sg.code(got.csc_conflicts[i - 1].state_a),
              sg.code(got.csc_conflicts[i].state_a));
  }
}

void expect_same_rule1(const StateGraph& sg, const std::string& context) {
  for (const int margin : {1, 2}) {
    for (const bool outputs_beat_inputs : {false, true}) {
      SCOPED_TRACE(context + " margin " + std::to_string(margin) +
                   (outputs_beat_inputs ? " outputs-beat-inputs" : ""));
      GenerateOptions opts;
      opts.margin_classes = margin;
      opts.outputs_beat_inputs = outputs_beat_inputs;
      const std::vector<RtAssumption> got = generate_assumptions(sg, opts);
      const std::vector<RtAssumption> want = reference_rule1(sg, opts);
      ASSERT_EQ(got.size(), want.size());
      // Edges, origin and rationale, in emission order.
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(to_string(sg.stg(), got[i]), to_string(sg.stg(), want[i]));
    }
  }
}

std::vector<std::string> corpus_paths() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(RTCAD_SPECS_DIR)) {
    if (entry.path().extension() == ".g")
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(AnalysisOracle, CorpusMatchesReference) {
  const std::vector<std::string> paths = corpus_paths();
  ASSERT_EQ(paths.size(), 19u);
  int with_conflicts = 0;
  for (const std::string& path : paths) {
    const StateGraph sg = StateGraph::build(parse_stg_file(path));
    expect_same_analysis(sg, path);
    expect_same_rule1(sg, path);
    if (!analyze(sg).has_csc()) ++with_conflicts;
  }
  EXPECT_GT(with_conflicts, 0) << "no corpus spec exercises the CSC half";
}

/// `stg` with every input re-declared as an output, so that an input
/// disabled by another firing counts as a persistency violation.
Stg inputs_as_outputs(Stg stg) {
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    if (stg.is_input(sig)) stg.signal(sig).kind = SignalKind::kOutput;
  }
  return stg;
}

/// An input (b+) can steal the token that enables output y+, so firing b+
/// disables an excited output.
constexpr const char* kRaceSpec = R"(
.model race
.inputs a b
.outputs y
.graph
a+ p
p y+ b+
y+ a-/1
b+ a-/2
a-/1 y-
a-/2 b-
y- q
b- q
q a+
.marking { q }
.end
)";

TEST(AnalysisOracle, PersistencyViolationsMatchReference) {
  std::size_t violations = 0;  // as the reference counts them
  const auto check = [&](const Stg& stg, const std::string& context) {
    const StateGraph sg = StateGraph::build(stg);
    expect_same_analysis(sg, context);
    expect_same_rule1(sg, context);
    violations += reference_analyze(sg).persistency.size();
  };
  for (const std::string& path : corpus_paths()) {
    check(inputs_as_outputs(parse_stg_file(path)),
          path + ", inputs as outputs");
  }
  check(parse_stg_string(kRaceSpec), "race");
  EXPECT_GT(violations, 0u) << "no input exercises the persistency screen";
}

TEST(AnalysisOracle, DenseAndWideCodesMatchReference) {
  expect_same_analysis(StateGraph::build(pipeline_stg(12)), "pipeline12");
  expect_same_analysis(StateGraph::build(johnson_stg(64)), "johnson64");
}

TEST(AnalysisOracle, RandomSpecsMatchReference) {
  SgOptions opts;
  opts.max_states = 4096;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Stg stg = random_stg(seed);
    try {
      const StateGraph sg = StateGraph::build(stg, opts);
      expect_same_analysis(sg, "seed " + std::to_string(seed));
      expect_same_rule1(sg, "seed " + std::to_string(seed));
      ++checked;
    } catch (const SpecError&) {
      // inconsistent, unbounded or over the cap: nothing to analyze
    }
  }
  EXPECT_GE(checked, 20) << "generator degenerated: almost nothing builds";
}

TEST(AnalysisOracle, RingsMatchReference) {
  const StateGraph ring9 = StateGraph::build(ring_stg(9));
  EXPECT_GT(reference_analyze(ring9).usc_classes, 0);
  expect_same_analysis(ring9, "ring9");
  expect_same_rule1(ring9, "ring9");
  // Pairs past the cap are dropped, so a short cap keeps a prefix.
  const SgAnalysis full = analyze(ring9);
  const SgAnalysis capped = analyze(ring9, 2);
  ASSERT_GT(full.csc_conflicts.size(), 2u);
  ASSERT_EQ(capped.csc_conflicts.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(capped.csc_conflicts[i].state_a, full.csc_conflicts[i].state_a);
    EXPECT_EQ(capped.csc_conflicts[i].state_b, full.csc_conflicts[i].state_b);
  }

  const StateGraph ring18 = StateGraph::build(ring_stg(18));
  EXPECT_EQ(reference_analyze(ring18).csc_conflicts.size(), kMaxReported);
  expect_same_analysis(ring18, "ring18");
  expect_same_rule1(ring18, "ring18");
}

}  // namespace
}  // namespace rtcad
