#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <functional>
#include <unordered_map>

#include "flow/flow.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "util/rng.hpp"
#include "verify/conformance.hpp"
#include "verify/separation.hpp"

namespace rtcad {
namespace {

TEST(Conformance, TrueCelementVerifies) {
  Netlist nl("cel");
  const int a = nl.add_primary_input("a", false);
  const int b = nl.add_primary_input("b", false);
  const int c = nl.add_net("c", false);
  nl.add_gate("CEL2", {a, b}, c);
  nl.mark_primary_output(c);
  const ConformanceResult r = verify_conformance(nl, celement_stg());
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_GT(r.states_explored, 4);
}

TEST(Conformance, AndOrCelementFailsUnboundedDelay) {
  // Section 5: the AND-OR "static" C-element has a hazard under the
  // unbounded delay model.
  const ConformanceResult r =
      verify_conformance(celement_and_or_netlist(), celement_stg());
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.trace.empty());
  // The failing event is a premature c- glitch.
  EXPECT_EQ(r.trace.back(), "c-");
}

TEST(Conformance, AndOrCelementVerifiesWithRtConstraints) {
  ConformanceOptions opts;
  opts.constraints = celement_and_or_constraints();
  const ConformanceResult r =
      verify_conformance(celement_and_or_netlist(), celement_stg(), opts);
  EXPECT_TRUE(r.ok) << r.failure;
}

TEST(Conformance, OrGateIsNotCelement) {
  Netlist nl("or");
  const int a = nl.add_primary_input("a", false);
  const int b = nl.add_primary_input("b", false);
  const int c = nl.add_net("c", false);
  nl.add_gate("OR2", {a, b}, c);
  nl.mark_primary_output(c);
  const ConformanceResult r = verify_conformance(nl, celement_stg());
  EXPECT_FALSE(r.ok);
}

TEST(Conformance, StuckCircuitReportsQuiescence) {
  Netlist nl("stuck");
  const int a = nl.add_primary_input("a", false);
  const int b = nl.add_primary_input("b", false);
  const int t0 = nl.add_primary_input("tie0", false);
  const int x = nl.add_net("x", false);
  const int c = nl.add_net("c", false);
  nl.add_gate("AND2", {a, b}, x);
  nl.add_gate("AND2", {x, t0}, c);  // c can never rise
  nl.mark_primary_output(c);
  const ConformanceResult r = verify_conformance(nl, celement_stg());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("quiescent"), std::string::npos);
}

TEST(Conformance, SynthesizedFifoVerifies) {
  // SI synthesis output conforms under unbounded delays GIVEN the two
  // orderings the environment cannot structurally provide: the state
  // signal's edges precede the input edges that nominally follow them in
  // the spec (internal signals are invisible to the environment — these
  // orderings are timing, even for the "speed-independent" circuit).
  FlowOptions opts;
  opts.mode = FlowMode::kSpeedIndependent;
  const FlowResult r = run_flow(fifo_csc_stg(), opts);

  const ConformanceResult bare = verify_conformance(r.netlist(), r.spec);
  EXPECT_FALSE(bare.ok);  // x- vs li- race, exactly as the paper predicts

  // The full required set below was discovered exactly as Section 5
  // prescribes: run the verifier, read the failure trace, add the ordering
  // that rules the race out, repeat until the circuit verifies. Two
  // signal-level constraints (the insertion's environment-visibility
  // obligations) plus seven net-level ones covering the mapped inverters
  // and the set-function release.
  ConformanceOptions copts;
  for (const char* t :
       {"x- before li-", "x+ before ri-", "ro_b+ before ri-",
        "x_set_a0+ before ri-", "lo_b+ before ri-", "x_b- before ri-",
        "lo_b- before ri+", "ro_b- before ri+", "x_set_a0- before li+"})
    copts.constraints.push_back(parse_net_constraint(t));
  const ConformanceResult v =
      verify_conformance(r.netlist(), r.spec, copts);
  EXPECT_TRUE(v.ok) << v.failure;
}

TEST(Conformance, RtFifoIsNotSpeedIndependent) {
  // The RT circuit is NOT speed-independent: under unbounded delays it
  // must fail conformance (that is the price of removing the handshake
  // overhead). Supplying the back-annotated signal-level constraints
  // moves the first failure deeper: the residual races are on mapped
  // inverter nets, which is exactly why Section 5 iterates verification,
  // adding NET-level constraints (ab/ac/bc in the paper's example) until
  // the circuit verifies. That loop is exercised end-to-end on the
  // C-element in this suite.
  FlowOptions opts;
  opts.mode = FlowMode::kRelativeTiming;
  const FlowResult r = run_flow(fifo_csc_stg(), opts);
  ASSERT_TRUE(r.rt.has_value());

  const ConformanceResult bare = verify_conformance(r.netlist(), r.spec);
  EXPECT_FALSE(bare.ok);
  EXPECT_FALSE(bare.trace.empty());

  ConformanceOptions copts;
  for (const auto& c : r.rt->constraints) {
    copts.constraints.push_back(
        NetConstraint{r.spec.signal(c.before.signal).name, c.before.pol,
                      r.spec.signal(c.after.signal).name, c.after.pol});
  }
  const ConformanceResult with =
      verify_conformance(r.netlist(), r.spec, copts);
  // Signal-level constraints defer the failure past the bare trace.
  EXPECT_FALSE(with.ok);
  EXPECT_GE(with.trace.size(), bare.trace.size());
}

TEST(Separation, CelementPathConstraint) {
  const NetConstraint c = parse_net_constraint("bc+ before ab-");
  const PathConstraint p = derive_path_constraint(
      celement_and_or_netlist(), celement_stg(), c);
  // The earliest common enabling signal is c (through the environment).
  EXPECT_EQ(p.common_source, "c");
  EXPECT_FALSE(p.fast_path.empty());
  EXPECT_FALSE(p.slow_path.empty());
  // Fast path: c -> bc (one AND gate). Slow: c -> a (env) -> ab.
  EXPECT_TRUE(p.satisfied);
  EXPECT_LT(p.fast_max_ps, p.slow_min_ps);
}

TEST(Separation, TightEnvironmentViolates) {
  SeparationOptions opts;
  opts.env_min_ps = 10.0;  // environment faster than a gate: unsafe
  opts.env_max_ps = 20.0;
  const NetConstraint c = parse_net_constraint("bc+ before ab-");
  const PathConstraint p = derive_path_constraint(
      celement_and_or_netlist(), celement_stg(), c, opts);
  EXPECT_FALSE(p.satisfied);
}

TEST(Separation, ParseErrors) {
  EXPECT_THROW(parse_net_constraint("garbage"), Error);
  EXPECT_THROW(parse_net_constraint("a+ until b-"), Error);
}

TEST(Conformance, SilentCycleIsAnErrorNotAHang) {
  // The internal signal x toggles on its own, so eager firing of silent
  // transitions never reaches a fixpoint. The checker says so instead of
  // spinning, and the flow's verify-netlist line reads it as inconclusive.
  const Stg spec = parse_stg_string(R"(.model osc
.inputs a
.outputs b
.internal x
.graph
a+ b+
b+ a-
a- b-
b- a+
x+ x-
x- x+
.marking { <b-,a+> <x-,x+> }
.end
)");
  Netlist nl("osc");
  const int a = nl.add_primary_input("a", false);
  const int b = nl.add_net("b", false);
  nl.add_gate("BUF", {a}, b);
  nl.mark_primary_output(b);
  const std::string want =
      "conformance: silent transitions of 'osc' cycle from state 0 of its "
      "state graph, so eager firing never settles";
  for (const bool via_graph : {false, true}) {
    try {
      if (via_graph)
        verify_conformance(nl, StateGraph::build(spec));
      else
        verify_conformance(nl, spec);
      ADD_FAILURE() << "no error, via_graph=" << via_graph;
    } catch (const SpecError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
  FlowOptions full;
  full.mode = FlowMode::kSpeedIndependent;
  full.stop_after = "verify-netlist";
  const PipelineResult r =
      FlowPipeline::standard(FlowMode::kSpeedIndependent).run(spec, full);
  ASSERT_TRUE(r.ok()) << r.error->message;
  ASSERT_TRUE(r.flow.conformance.has_value());
  EXPECT_EQ(r.flow.conformance->note, want);
}

// --- differential oracle ----------------------------------------------------
// The checker's previous engine, kept as the reference: it builds its own
// spec graph under the composed cap, evaluates each gate through eval_cell
// on a fresh pin vector, names every move as a string, and indexes
// composed states in an unordered_map with a deque of ids. The engine in
// src/verify must match it on every ConformanceResult field and on every
// thrown message.

struct RefState {
  std::uint64_t values = 0;
  int spec_state = 0;
  bool operator==(const RefState&) const = default;
};

struct RefHash {
  std::size_t operator()(const RefState& s) const {
    return std::hash<std::uint64_t>{}(s.values) * 31 ^
           std::hash<int>{}(s.spec_state);
  }
};

class ReferenceChecker {
 public:
  static StateGraph build_spec_graph(const Stg& spec,
                                     const ConformanceOptions& opts) {
    try {
      return StateGraph::build(spec, SgOptions{opts.max_states});
    } catch (const SpecError& e) {
      throw SpecError(std::string("conformance: cannot build the "
                                  "specification state graph: ") +
                      e.what());
    }
  }

  ReferenceChecker(const Netlist& nl, const Stg& spec,
                   const ConformanceOptions& opts)
      : nl_(nl),
        spec_(spec),
        spec_sg_(build_spec_graph(spec, opts)),
        opts_(opts) {
    RTCAD_EXPECTS(nl.num_nets() <= 64);
    net_signal_.assign(nl.num_nets(), -1);
    signal_net_.assign(spec.num_signals(), -1);
    for (int s = 0; s < spec.num_signals(); ++s) {
      if (spec.signal(s).kind == SignalKind::kInternal) continue;
      const int net = nl.find_net(spec.signal(s).name);
      if (net < 0) {
        if (spec.signal(s).kind == SignalKind::kInput)
          throw SpecError("conformance: no net for spec input '" +
                          spec.signal(s).name + "'");
        continue;
      }
      net_signal_[net] = s;
      signal_net_[s] = net;
    }
    for (const auto& c : opts.constraints) {
      const int b = nl.find_net(c.before_net);
      const int a = nl.find_net(c.after_net);
      if (b < 0 || a < 0)
        throw SpecError("constraint references unknown net '" +
                        (b < 0 ? c.before_net : c.after_net) + "'");
      constraints_.push_back({b, c.before_pol, a, c.after_pol});
    }
  }

  ConformanceResult run() {
    RefState init;
    init.spec_state = fire_silent(spec_sg_.initial_state());
    for (int n = 0; n < nl_.num_nets(); ++n) {
      if (nl_.net(n).initial_value) init.values |= std::uint64_t{1} << n;
    }
    std::unordered_map<RefState, int, RefHash> index;
    std::vector<RefState> states{init};
    std::vector<std::pair<int, std::string>> parent{{-1, ""}};
    index.emplace(init, 0);
    std::deque<int> queue{0};

    ConformanceResult result;
    while (!queue.empty()) {
      const int si = queue.front();
      queue.pop_front();
      const RefState state = states[si];
      ++result.states_explored;
      if (opts_.cancel && result.states_explored % 256 == 1)
        opts_.cancel->check("conformance");
      if (states.size() > opts_.max_states)
        throw SpecError("conformance state space exceeds limit");

      bool circuit_can_move = false;
      bool spec_wants_output = false;
      for (int g = 0; g < nl_.num_gates(); ++g) {
        const int next = eval_gate(state.values, g);
        const int out = nl_.gate(g).output;
        const bool cur = (state.values >> out) & 1;
        if (next < 0 || next == static_cast<int>(cur)) continue;
        circuit_can_move = true;
        const Polarity pol = next ? Polarity::kRise : Polarity::kFall;
        if (blocked(state, out, pol)) continue;
        RefState succ = state;
        succ.values ^= std::uint64_t{1} << out;
        const std::string event = nl_.net(out).name + (next ? "+" : "-");
        const int sig = net_signal_[out];
        if (sig >= 0 && !spec_.is_input(sig)) {
          const int to = spec_sg_.successor(state.spec_state, Edge{sig, pol});
          if (to < 0) {
            result.ok = false;
            result.failure = "circuit produced " + event +
                             " which the specification does not allow";
            result.trace = trace_of(parent, si);
            result.trace.push_back(event);
            return result;
          }
          succ.spec_state = fire_silent(to);
        }
        push(succ, si, event, &index, &states, &parent, &queue);
      }
      for (const auto& [t, to] : spec_sg_.out_edges(state.spec_state)) {
        const auto& label = spec_.transition(t).label;
        if (!label) continue;
        if (!spec_.is_input(label->signal)) {
          spec_wants_output = true;
          continue;
        }
        const int net = signal_net_[label->signal];
        const bool cur = (state.values >> net) & 1;
        const bool want = label->pol == Polarity::kRise;
        if (cur == want) continue;
        if (blocked(state, net, label->pol)) continue;
        RefState succ = state;
        succ.values ^= std::uint64_t{1} << net;
        succ.spec_state = fire_silent(to);
        push(succ, si, spec_.edge_text(*label), &index, &states, &parent,
             &queue);
      }
      if (spec_wants_output && !circuit_can_move) {
        result.ok = false;
        result.failure = "circuit is quiescent but the specification "
                         "still expects an output transition";
        result.trace = trace_of(parent, si);
        return result;
      }
    }
    result.ok = true;
    return result;
  }

 private:
  int eval_gate(std::uint64_t values, int g) const {
    const auto& gate = nl_.gate(g);
    std::vector<bool> pins(gate.inputs.size());
    for (std::size_t i = 0; i < gate.inputs.size(); ++i)
      pins[i] = (values >> gate.inputs[i]) & 1;
    return eval_cell(Library::standard().cell(gate.cell).kind, pins,
                     (values >> gate.output) & 1);
  }

  bool net_excited(const RefState& s, int n, Polarity pol) const {
    const bool cur = (s.values >> n) & 1;
    const bool want = pol == Polarity::kRise;
    if (cur == want) return false;
    const int driver = nl_.net(n).driver;
    if (driver >= 0) {
      const int next = eval_gate(s.values, driver);
      return next >= 0 && next == static_cast<int>(want);
    }
    const int sig = net_signal_[n];
    if (sig < 0) return false;
    for (const auto& [t, to] : spec_sg_.out_edges(s.spec_state)) {
      const auto& label = spec_.transition(t).label;
      if (label && label->signal == sig && label->pol == pol) return true;
    }
    return false;
  }

  bool blocked(const RefState& s, int net, Polarity pol) const {
    for (const auto& c : constraints_) {
      if (c.after_net == net && c.after_pol == pol &&
          net_excited(s, c.before_net, c.before_pol))
        return true;
    }
    return false;
  }

  int fire_silent(int spec_state) const {
    for (bool progress = true; progress;) {
      progress = false;
      for (const auto& [t, to] : spec_sg_.out_edges(spec_state)) {
        const auto& label = spec_.transition(t).label;
        if (!label ||
            spec_.signal(label->signal).kind == SignalKind::kInternal) {
          spec_state = to;
          progress = true;
          break;
        }
      }
    }
    return spec_state;
  }

  void push(const RefState& succ, int from, const std::string& event,
            std::unordered_map<RefState, int, RefHash>* index,
            std::vector<RefState>* states,
            std::vector<std::pair<int, std::string>>* parent,
            std::deque<int>* queue) {
    auto [it, inserted] = index->emplace(succ, states->size());
    if (!inserted) return;
    states->push_back(succ);
    parent->push_back({from, event});
    queue->push_back(it->second);
  }

  static std::vector<std::string> trace_of(
      const std::vector<std::pair<int, std::string>>& parent, int s) {
    std::vector<std::string> trace;
    for (int i = s; parent[i].first >= 0; i = parent[i].first)
      trace.push_back(parent[i].second);
    return {trace.rbegin(), trace.rend()};
  }

  struct RefConstraint {
    int before_net;
    Polarity before_pol;
    int after_net;
    Polarity after_pol;
  };

  const Netlist& nl_;
  const Stg& spec_;
  const StateGraph spec_sg_;
  const ConformanceOptions& opts_;
  std::vector<int> net_signal_, signal_net_;
  std::vector<RefConstraint> constraints_;
};

/// One check's observable outcome: the result, or the thrown message.
struct Outcome {
  ConformanceResult result;
  bool threw = false;
  std::string message;
};

Outcome outcome_of(const std::function<ConformanceResult()>& check) {
  Outcome o;
  try {
    o.result = check();
  } catch (const Error& e) {
    o.threw = true;
    o.message = e.what();
  }
  return o;
}

void expect_same(const Outcome& want, const Outcome& got,
                 const std::string& what) {
  EXPECT_EQ(got.threw, want.threw) << what;
  EXPECT_EQ(got.message, want.message) << what;
  EXPECT_EQ(got.result.ok, want.result.ok) << what;
  EXPECT_EQ(got.result.failure, want.result.failure) << what;
  EXPECT_EQ(got.result.trace, want.result.trace) << what;
  EXPECT_EQ(got.result.states_explored, want.result.states_explored)
      << what;
}

/// Check through the reference and both entry points — the Stg one and
/// the one taking `graph`, the spec's state graph as the flow holds it —
/// expect all three to agree, and return the reference's outcome.
Outcome expect_matches_reference(const Netlist& nl, const Stg& spec,
                                 const StateGraph& graph,
                                 const ConformanceOptions& opts,
                                 const std::string& what) {
  const Outcome want =
      outcome_of([&] { return ReferenceChecker(nl, spec, opts).run(); });
  expect_same(want,
              outcome_of([&] { return verify_conformance(nl, spec, opts); }),
              what + " [Stg]");
  expect_same(want,
              outcome_of([&] { return verify_conformance(nl, graph, opts); }),
              what + " [graph]");
  return want;
}

/// Which paths a set of checks ran, so each test can require its share.
struct PathTally {
  int conforms = 0, produced = 0, quiescent = 0, composed_cap = 0,
      graph_cap = 0;
  std::size_t longest_trace = 0;

  void add(const Outcome& o) {
    if (o.threw) {
      composed_cap += o.message == "conformance state space exceeds limit";
      graph_cap += o.message.find("cannot build the specification state "
                                  "graph") != std::string::npos;
      return;
    }
    conforms += o.result.ok;
    produced += o.result.failure.starts_with("circuit produced");
    quiescent += o.result.failure.find("quiescent") != std::string::npos;
    longest_trace = std::max(longest_trace, o.result.trace.size());
  }
};

/// One corpus spec's mapped netlist in one mode, with its lowered
/// constraints and the flow's spec and state graph.
struct CorpusItem {
  std::string name;
  Stg spec;
  StateGraph graph;
  Netlist netlist;
  std::vector<NetConstraint> constraints;
};

const std::vector<CorpusItem>& corpus_items() {
  static const std::vector<CorpusItem> items = [] {
    std::vector<std::string> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(RTCAD_SPECS_DIR))
      if (entry.path().extension() == ".g")
        paths.push_back(entry.path().string());
    std::sort(paths.begin(), paths.end());
    std::vector<CorpusItem> out;
    for (const std::string& path : paths) {
      const Stg spec = parse_stg_file(path);
      for (const FlowMode mode :
           {FlowMode::kRelativeTiming, FlowMode::kSpeedIndependent}) {
        FlowOptions opts;
        opts.mode = mode;
        opts.stop_after = "map";
        const PipelineResult r = FlowPipeline::standard(mode).run(spec, opts);
        if (!r.ok()) continue;  // SI fifo and fifo_2slot: CSC unsolvable
        const MapReport& mapped = *r.flow.mapped;
        out.push_back(CorpusItem{
            std::filesystem::path(path).stem().string() +
                (mode == FlowMode::kRelativeTiming ? ":RT" : ":SI"),
            r.flow.spec, StateGraph::build(r.flow.spec), mapped.netlist,
            mapped.constraints});
      }
    }
    return out;
  }();
  return items;
}

TEST(ConformanceOracle, CorpusMatchesTheReference) {
  const std::vector<CorpusItem>& items = corpus_items();
  ASSERT_EQ(items.size(), 36u);  // 19 RT + 17 SI
  PathTally tally;
  for (const CorpusItem& item : items) {
    ConformanceOptions with;
    with.constraints = item.constraints;
    tally.add(expect_matches_reference(item.netlist, item.spec, item.graph,
                                       with, item.name + " constrained"));
    tally.add(expect_matches_reference(item.netlist, item.spec, item.graph,
                                       {}, item.name + " bare"));
  }
  EXPECT_GT(tally.conforms, 0);
  EXPECT_GT(tally.produced, 0);
}

TEST(ConformanceOracle, SectionFiveCelementMatchesTheReference) {
  const Stg spec = celement_stg();
  const StateGraph graph = StateGraph::build(spec);
  const Netlist nl = celement_and_or_netlist();
  ConformanceOptions with;
  with.constraints = celement_and_or_constraints();
  const Outcome bare =
      expect_matches_reference(nl, spec, graph, {}, "AND-OR bare");
  EXPECT_FALSE(bare.result.ok);
  const Outcome constrained =
      expect_matches_reference(nl, spec, graph, with, "AND-OR constrained");
  EXPECT_TRUE(constrained.result.ok) << constrained.result.failure;
}

TEST(ConformanceOracle, SeededMutationsMatchTheReference) {
  // One gate per mutant: another cell of the same arity, or its output's
  // initial value flipped. Broken netlists drive the failure paths the
  // flow's own netlists rarely reach.
  const Library& lib = Library::standard();
  PathTally tally;
  const std::vector<CorpusItem>& items = corpus_items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const CorpusItem& item = items[i];
    Rng rng(1000 + i);
    ConformanceOptions with;
    with.constraints = item.constraints;
    for (int m = 0; m < 8; ++m) {
      Netlist nl = item.netlist;
      const int g = static_cast<int>(rng.below(nl.num_gates()));
      NetlistGate& gate = nl.gate(g);
      std::vector<int> same_arity;
      for (int c = 0; c < lib.num_cells(); ++c)
        if (c != gate.cell && lib.cell(c).kind != CellKind::kInput &&
            lib.cell(c).num_pins == static_cast<int>(gate.inputs.size()))
          same_arity.push_back(c);
      std::string what = item.name + " mutant " + std::to_string(m) + ": ";
      if (!same_arity.empty() && rng.chance(0.5)) {
        gate.cell = same_arity[rng.below(same_arity.size())];
        what += "gate " + std::to_string(g) + " is " + lib.cell(gate.cell).name;
      } else {
        nl.net(gate.output).initial_value = !nl.net(gate.output).initial_value;
        what += "net " + nl.net(gate.output).name + " starts flipped";
      }
      tally.add(
          expect_matches_reference(nl, item.spec, item.graph, {}, what));
      tally.add(expect_matches_reference(nl, item.spec, item.graph, with,
                                         what + " constrained"));
    }
  }
  EXPECT_GT(tally.produced, 0);
  EXPECT_GT(tally.quiescent, 0);
  EXPECT_GE(tally.longest_trace, 10u);
}

TEST(ConformanceOracle, CapsMatchTheReference) {
  // A cap at the spec graph's size admits the graph and stops the
  // composed exploration; one state less refuses the graph.
  PathTally tally;
  for (const CorpusItem& item : corpus_items()) {
    ConformanceOptions opts;
    opts.constraints = item.constraints;
    opts.max_states = static_cast<std::size_t>(item.graph.num_states());
    tally.add(expect_matches_reference(item.netlist, item.spec, item.graph,
                                       opts, item.name + " composed cap"));
    opts.max_states -= 1;
    tally.add(expect_matches_reference(item.netlist, item.spec, item.graph,
                                       opts, item.name + " graph cap"));
  }
  EXPECT_GT(tally.composed_cap, 0);
  EXPECT_EQ(tally.graph_cap, 36);
}

TEST(ConformanceOracle, Pipeline16GraphCapRefusalMatchesTheReference) {
  // The flow's verify cap against a spec graph past it: pipeline16's
  // verify-netlist line reads this refusal in both modes.
  const Stg spec = *generated_spec("pipeline16");
  const StateGraph graph = StateGraph::build(spec);
  ASSERT_GT(graph.num_states(), 1 << 16);
  Netlist nl("pipeline16");
  nl.add_primary_input("in", false);
  ConformanceOptions opts;
  opts.max_states = std::size_t{1} << 16;
  const Outcome o =
      expect_matches_reference(nl, spec, graph, opts, "pipeline16");
  EXPECT_EQ(o.message,
            "conformance: cannot build the specification state graph: "
            "state graph of 'pipeline16' exceeds 65536 states");
}

TEST(ConformanceOracle, SetupErrorsMatchTheReference) {
  const Stg spec = celement_stg();
  const StateGraph graph = StateGraph::build(spec);
  Netlist missing_input("no_b");
  const int a = missing_input.add_primary_input("a", false);
  const int c = missing_input.add_net("c", false);
  missing_input.add_gate("BUF", {a}, c);
  missing_input.mark_primary_output(c);
  const Outcome o1 = expect_matches_reference(missing_input, spec, graph, {},
                                              "missing input net");
  EXPECT_EQ(o1.message, "conformance: no net for spec input 'b'");

  ConformanceOptions unknown;
  unknown.constraints.push_back(parse_net_constraint("zz+ before c-"));
  const Outcome o2 = expect_matches_reference(
      celement_and_or_netlist(), spec, graph, unknown, "unknown net");
  EXPECT_EQ(o2.message, "constraint references unknown net 'zz'");
}

}  // namespace
}  // namespace rtcad
