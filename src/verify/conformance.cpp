#include "verify/conformance.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "sg/stategraph.hpp"
#include "util/strings.hpp"

namespace rtcad {

NetConstraint parse_net_constraint(const std::string& text) {
  const auto tokens = split(text);
  if (tokens.size() != 3 || (tokens[1] != "before" && tokens[1] != "<"))
    throw Error("cannot parse net constraint '" + text + "'");
  auto parse = [](const std::string& t, std::string* net, Polarity* pol) {
    if (t.size() < 2 || (t.back() != '+' && t.back() != '-'))
      throw Error("bad net edge '" + t + "'");
    *net = t.substr(0, t.size() - 1);
    *pol = t.back() == '+' ? Polarity::kRise : Polarity::kFall;
  };
  NetConstraint c;
  parse(tokens[0], &c.before_net, &c.before_pol);
  parse(tokens[2], &c.after_net, &c.after_pol);
  return c;
}

namespace {

SpecError spec_graph_error(const char* what) {
  return SpecError(strprintf(
      "conformance: cannot build the specification state graph: %s", what));
}

/// A move's event as an integer. An environment move is its spec
/// transition id, below Stg::kMaxTransitions; a gate move on net n is
/// kGateEvent + 2n, plus 1 for a rising edge. Names are built from codes
/// only on the counterexample path.
constexpr std::uint32_t kGateEvent = Stg::kMaxTransitions;

std::uint32_t gate_event(int net, bool rise) {
  return kGateEvent + 2 * static_cast<std::uint32_t>(net) + (rise ? 1 : 0);
}

/// An edge as an integer: 2 * signal, plus 1 for a rising edge.
int edge_code(int signal, bool rise) { return 2 * signal + (rise ? 1 : 0); }

/// A gate compiled once per check: its input nets (pin-ordered, padded
/// with pin 0's net) and a 32-entry table, one bit per (pin bits, current
/// output) pair, set where eval_cell's next value is defined and differs
/// from the current output. An evaluation is a gather of at most four bits
/// and one table load.
struct CompiledGate {
  std::array<std::uint8_t, 4> in{};
  std::uint8_t out = 0;
  std::uint32_t switches = 0;

  bool excited(std::uint64_t v) const {
    const unsigned idx = static_cast<unsigned>(
        ((v >> in[0]) & 1) | ((v >> in[1]) & 1) << 1 |
        ((v >> in[2]) & 1) << 2 | ((v >> in[3]) & 1) << 3 |
        ((v >> out) & 1) << 4);
    return (switches >> idx) & 1;
  }
};

/// `scratch` holds the pin values eval_cell reads; callers reuse it across
/// gates.
CompiledGate compile_gate(const NetlistGate& gate,
                          std::vector<bool>* scratch) {
  const std::size_t pins = gate.inputs.size();
  RTCAD_EXPECTS(pins <= 4);
  CompiledGate g;
  for (std::size_t k = 0; k < 4; ++k)
    g.in[k] = static_cast<std::uint8_t>(
        k < pins ? gate.inputs[k] : (pins > 0 ? gate.inputs[0] : 0));
  g.out = static_cast<std::uint8_t>(gate.output);
  const CellKind kind = Library::standard().cell(gate.cell).kind;
  std::vector<bool>& bits = *scratch;
  bits.assign(pins, false);
  const unsigned pin_mask = (1u << pins) - 1;
  for (unsigned idx = 0; idx < 32; ++idx) {
    // Pins past the cell's arity read a padding net, so entries that
    // differ only in those bits repeat the entry with them clear.
    if (idx & ~(pin_mask | 16u)) {
      g.switches |= ((g.switches >> (idx & (pin_mask | 16u))) & 1) << idx;
      continue;
    }
    for (std::size_t k = 0; k < pins; ++k) bits[k] = (idx >> k) & 1;
    const bool cur = (idx >> 4) & 1;
    const int next = eval_cell(kind, bits, cur);
    if (next >= 0 && next != static_cast<int>(cur)) g.switches |= 1u << idx;
  }
  return g;
}

/// A spec transition as the checker reads it.
struct SpecTransition {
  int edge = -1;       ///< its label's edge_code; -1 for a dummy
  int input_net = -1;  ///< an input edge's net; -1 for any other transition
  bool silent = true;  ///< fired by the closure: a dummy or internal edge
};

/// A composed state: the circuit's net values and a spec state, with the
/// composed state it was discovered from and the move's event code.
struct Composed {
  std::uint64_t values = 0;
  int spec_state = 0;
  int parent = -1;  ///< -1 for the initial state
  std::uint32_t event = 0;
};

/// The composed model: circuit net values x spec state, explored
/// breadth-first. Composed states live in one flat array in discovery
/// order; an open-addressed table of ids indexes them and reads its keys
/// back from the array. The BFS walks ids in order, which is the order a
/// FIFO queue of ids gives.
class Checker {
 public:
  Checker(const Netlist& nl, const StateGraph& sg,
          const ConformanceOptions& opts)
      : nl_(nl), sg_(sg), spec_(sg.stg()), opts_(opts) {
    if (static_cast<std::size_t>(sg.num_states()) > opts.max_states)
      throw spec_graph_error(
          strprintf("state graph of '%s' exceeds %zu states",
                    spec_.name().c_str(), opts.max_states)
              .c_str());
    RTCAD_EXPECTS(nl.num_nets() <= 64);
    // Map spec signals to nets and vice versa. A gate move on the net of
    // an observable non-input signal must be one the spec allows.
    net_signal_.assign(nl.num_nets(), -1);
    net_checked_.assign(nl.num_nets(), -1);
    std::vector<int> signal_net(spec_.num_signals(), -1);
    for (int s = 0; s < spec_.num_signals(); ++s) {
      // Internal spec signals are NOT observable: conformance is checked
      // on the I/O behaviour only (lazy internal signals legitimately fire
      // outside their nominal spec window). Their spec transitions are
      // fired eagerly with the silent closure.
      if (spec_.signal(s).kind == SignalKind::kInternal) continue;
      const int net = nl.find_net(spec_.signal(s).name);
      if (net < 0) {
        if (spec_.is_input(s))
          throw SpecError("conformance: no net for spec input '" +
                          spec_.signal(s).name + "'");
        continue;
      }
      net_signal_[net] = s;
      signal_net[s] = net;
      if (!spec_.is_input(s)) net_checked_[net] = s;
    }
    for (const auto& c : opts.constraints) {
      const int b = nl.find_net(c.before_net);
      const int a = nl.find_net(c.after_net);
      if (b < 0 || a < 0)
        throw SpecError("constraint references unknown net '" +
                        (b < 0 ? c.before_net : c.after_net) + "'");
      const bool after_rise = c.after_pol == Polarity::kRise;
      constraints_.push_back(
          {b, c.before_pol == Polarity::kRise, a, after_rise});
      constrained_after_[after_rise] |= std::uint64_t{1} << a;
    }

    gates_.reserve(nl.num_gates());
    std::vector<bool> pins(4);
    for (int g = 0; g < nl.num_gates(); ++g)
      gates_.push_back(compile_gate(nl.gate(g), &pins));
    transitions_.resize(spec_.num_transitions());
    for (int t = 0; t < spec_.num_transitions(); ++t) {
      const auto& label = spec_.transition(t).label;
      if (!label) continue;
      SpecTransition& st = transitions_[t];
      st.edge = edge_code(label->signal, label->pol == Polarity::kRise);
      if (spec_.is_input(label->signal))
        st.input_net = signal_net[label->signal];  // found, or thrown above
      st.silent = spec_.signal(label->signal).kind == SignalKind::kInternal;
    }
    closure_.assign(sg.num_states(), -1);
  }

  ConformanceResult run() {
    std::uint64_t init = 0;
    for (int n = 0; n < nl_.num_nets(); ++n) {
      if (nl_.net(n).initial_value) init |= std::uint64_t{1} << n;
    }
    states_.reserve(kInitialSlots / 2);
    slots_.assign(kInitialSlots, -1);
    insert(init, fire_silent(sg_.initial_state()), -1, 0);

    ConformanceResult result;
    for (int si = 0; si < static_cast<int>(states_.size()); ++si) {
      const std::uint64_t values = states_[si].values;
      const int spec_state = states_[si].spec_state;
      ++result.states_explored;
      if (opts_.cancel && result.states_explored % 256 == 1)
        opts_.cancel->check("conformance");
      if (states_.size() > opts_.max_states)
        throw SpecError("conformance state space exceeds limit");

      bool circuit_can_move = false;
      bool spec_wants_output = false;

      // --- circuit moves: every excited gate may fire ------------------
      for (const CompiledGate& gate : gates_) {
        if (!gate.excited(values)) continue;
        circuit_can_move = true;
        const int out = gate.out;
        const bool rise = !((values >> out) & 1);
        if (blocked(values, spec_state, out, rise)) continue;
        int succ_spec = spec_state;
        const int sig = net_checked_[out];
        if (sig >= 0) {
          const int to = successor(spec_state, edge_code(sig, rise));
          if (to < 0) {
            const std::string event = event_name(gate_event(out, rise));
            result.ok = false;
            result.failure = "circuit produced " + event +
                             " which the specification does not allow";
            result.trace = trace_of(si);
            result.trace.push_back(event);
            return result;
          }
          succ_spec = fire_silent(to);
        }
        insert(values ^ (std::uint64_t{1} << out), succ_spec, si,
               gate_event(out, rise));
      }

      // --- environment moves: enabled spec input transitions -----------
      for (const auto& [t, to] : sg_.out_edges(spec_state)) {
        const SpecTransition& st = transitions_[t];
        if (st.edge < 0) continue;
        if (st.input_net < 0) {
          spec_wants_output = true;
          continue;
        }
        const int net = st.input_net;
        const bool cur = (values >> net) & 1;
        const bool rise = st.edge & 1;
        if (cur == rise) continue;  // already there (shouldn't happen)
        if (blocked(values, spec_state, net, rise)) continue;
        insert(values ^ (std::uint64_t{1} << net), fire_silent(to), si,
               static_cast<std::uint32_t>(t));
      }

      if (spec_wants_output && !circuit_can_move) {
        result.ok = false;
        result.failure = "circuit is quiescent but the specification "
                         "still expects an output transition";
        result.trace = trace_of(si);
        return result;
      }
    }
    result.ok = true;
    return result;
  }

 private:
  /// Successor of a spec state under its first out-edge labelled `code`;
  /// -1 if none (StateGraph::successor on edge codes).
  int successor(int spec_state, int code) const {
    for (const auto& [t, to] : sg_.out_edges(spec_state))
      if (transitions_[t].edge == code) return to;
    return -1;
  }

  /// Is net `n` excited to move toward `rise` in this composed state?
  bool net_excited(std::uint64_t values, int spec_state, int n,
                   bool rise) const {
    if (static_cast<bool>((values >> n) & 1) == rise) return false;
    const int driver = nl_.net(n).driver;
    if (driver >= 0) return gates_[driver].excited(values);
    // Primary input: excited if the spec can fire that edge.
    const int sig = net_signal_[n];
    return sig >= 0 && successor(spec_state, edge_code(sig, rise)) >= 0;
  }

  bool blocked(std::uint64_t values, int spec_state, int net,
               bool rise) const {
    if (!((constrained_after_[rise] >> net) & 1)) return false;
    for (const InternalConstraint& c : constraints_) {
      if (c.after_net == net && c.after_rise == rise &&
          net_excited(values, spec_state, c.before_net, c.before_rise))
        return true;
    }
    return false;
  }

  /// Eagerly follow unobservable spec transitions — dummies and internal
  /// signals — to their fixpoint, taking the first unobservable out-edge
  /// each step. Memoised per spec state. The walk is deterministic, so one
  /// longer than the graph has states has entered a cycle and would never
  /// settle: that is a SpecError, not a hang.
  int fire_silent(int spec_state) {
    int& memo = closure_[spec_state];
    if (memo >= 0) return memo;
    int s = spec_state;
    for (int steps = 0;; ++steps) {
      int next = -1;
      for (const auto& [t, to] : sg_.out_edges(s)) {
        if (transitions_[t].silent) {
          next = to;
          break;
        }
      }
      if (next < 0) break;
      if (steps == sg_.num_states())
        throw SpecError(strprintf(
            "conformance: silent transitions of '%s' cycle from state %d "
            "of its state graph, so eager firing never settles",
            spec_.name().c_str(), spec_state));
      s = next;
    }
    memo = s;
    return s;
  }

  static std::uint64_t hash(std::uint64_t values, int spec_state) {
    std::uint64_t h =
        values ^ (static_cast<std::uint64_t>(spec_state) * 0x9E3779B97F4A7C15u);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDu;
    h ^= h >> 33;
    return h;
  }

  /// Append (values, spec_state) as a new composed state reached from
  /// `parent` by `event`, unless it is already known.
  void insert(std::uint64_t values, int spec_state, int parent,
              std::uint32_t event) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(values, spec_state) & mask;
    for (; slots_[i] >= 0; i = (i + 1) & mask) {
      const Composed& known = states_[slots_[i]];
      if (known.values == values && known.spec_state == spec_state) return;
    }
    slots_[i] = static_cast<int>(states_.size());
    states_.push_back(Composed{values, spec_state, parent, event});
    if (2 * states_.size() > slots_.size()) grow();
  }

  /// Double the table and re-insert every id, reading keys from the arrays.
  void grow() {
    slots_.assign(2 * slots_.size(), -1);
    const std::size_t mask = slots_.size() - 1;
    for (int id = 0; id < static_cast<int>(states_.size()); ++id) {
      std::size_t i = hash(states_[id].values, states_[id].spec_state) & mask;
      while (slots_[i] >= 0) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::string event_name(std::uint32_t event) const {
    if (event >= kGateEvent) {
      const std::uint32_t net_edge = event - kGateEvent;
      return nl_.net(static_cast<int>(net_edge / 2)).name +
             (net_edge & 1 ? "+" : "-");
    }
    return spec_.edge_text(*spec_.transition(static_cast<int>(event)).label);
  }

  std::vector<std::string> trace_of(int s) const {
    std::vector<std::string> trace;
    for (int i = s; states_[i].parent >= 0; i = states_[i].parent)
      trace.push_back(event_name(states_[i].event));
    std::reverse(trace.begin(), trace.end());
    return trace;
  }

  struct InternalConstraint {
    int before_net;
    bool before_rise;
    int after_net;
    bool after_rise;
  };

  const Netlist& nl_;
  const StateGraph& sg_;
  const Stg& spec_;
  const ConformanceOptions& opts_;
  // Per net: the spec signal of its name (-1: none or internal), and the
  // signal a gate move on it must match in the spec (-1: unchecked).
  std::vector<int> net_signal_, net_checked_;
  std::vector<CompiledGate> gates_;
  std::vector<InternalConstraint> constraints_;
  /// Bit n of [rise]: some constraint's `after` edge is net n's edge.
  std::uint64_t constrained_after_[2] = {0, 0};
  std::vector<SpecTransition> transitions_;  ///< by spec transition id
  std::vector<int> closure_;  ///< per spec state: fire_silent(), -1 unknown
  static constexpr std::size_t kInitialSlots = 128;
  std::vector<Composed> states_;  ///< by id, in discovery order
  std::vector<int> slots_;        ///< open-addressed ids, -1 empty
};

}  // namespace

ConformanceResult verify_conformance(const Netlist& netlist,
                                     const StateGraph& spec_graph,
                                     const ConformanceOptions& opts) {
  return Checker(netlist, spec_graph, opts).run();
}

ConformanceResult verify_conformance(const Netlist& netlist, const Stg& spec,
                                     const ConformanceOptions& opts) {
  const StateGraph sg = [&] {
    try {
      return StateGraph::build(spec, SgOptions{opts.max_states});
    } catch (const SpecError& e) {
      throw spec_graph_error(e.what());
    }
  }();
  return verify_conformance(netlist, sg, opts);
}

Netlist celement_and_or_netlist() {
  Netlist nl("celement_and_or");
  const int a = nl.add_primary_input("a", false);
  const int b = nl.add_primary_input("b", false);
  const int ab = nl.add_net("ab", false);
  const int ac = nl.add_net("ac", false);
  const int bc = nl.add_net("bc", false);
  const int c = nl.add_net("c", false);
  nl.add_gate("AND2", {a, b}, ab);
  nl.add_gate("AND2", {a, c}, ac);
  nl.add_gate("AND2", {b, c}, bc);
  nl.add_gate("OR3", {ab, ac, bc}, c);
  nl.mark_primary_output(c);
  return nl;
}

std::vector<NetConstraint> celement_and_or_constraints() {
  return {parse_net_constraint("ac+ before ab-"),
          parse_net_constraint("bc+ before ab-")};
}

}  // namespace rtcad
