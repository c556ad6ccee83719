#include "bm/burstmode.hpp"

#include <deque>
#include <map>

#include "logic/minimize.hpp"
#include "synth/mapper.hpp"

namespace rtcad {

int BmMachine::add_signal(const std::string& name, SignalKind kind) {
  const int id = static_cast<int>(signals_.size());
  signals_.push_back(Signal{name, kind, 0});
  return id;
}

int BmMachine::add_state() {
  states_.emplace_back();
  return static_cast<int>(states_.size()) - 1;
}

void BmMachine::add_arc(int state, BmBurst burst) {
  RTCAD_EXPECTS(state >= 0 && state < num_states());
  RTCAD_EXPECTS(burst.next_state >= 0 && burst.next_state < num_states());
  RTCAD_EXPECTS(!burst.inputs.empty());
  states_[state].push_back(std::move(burst));
}

std::vector<std::uint32_t> BmMachine::rest_values() const {
  std::vector<std::uint32_t> rest(num_states(), 0xffffffffu);
  std::deque<int> queue{initial_state_};
  rest[initial_state_] = 0;
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    for (const auto& arc : states_[s]) {
      std::uint32_t v = rest[s];
      for (const Edge& e : arc.inputs) {
        const std::uint32_t bit = 1u << e.signal;
        const bool cur = v & bit;
        if (cur == (e.pol == Polarity::kRise))
          throw SpecError("burst edge does not toggle signal '" +
                          signals_[e.signal].name + "'");
        v ^= bit;
      }
      for (const Edge& e : arc.outputs) v ^= 1u << e.signal;
      if (rest[arc.next_state] == 0xffffffffu) {
        rest[arc.next_state] = v;
        queue.push_back(arc.next_state);
      } else if (rest[arc.next_state] != v) {
        throw SpecError("inconsistent rest values in burst-mode machine");
      }
    }
  }
  return rest;
}

BmSynthResult synthesize_bm(const BmMachine& m) {
  const auto rest = m.rest_values();
  int state_bits = 0;
  while ((1 << state_bits) < m.num_states()) ++state_bits;
  const int nsig = m.num_signals();
  const int nvars = nsig + state_bits;
  // Rest values are 32-bit words.
  RTCAD_EXPECTS(nvars <= 32);

  auto total = [&](std::uint32_t values, int state) {
    return values | (static_cast<std::uint64_t>(state) << nsig);
  };

  // The pins of each output signal and state bit, the last pin of a
  // minterm winning; everything not pinned is a don't-care (fundamental
  // mode).
  std::vector<std::map<std::uint64_t, bool>> pins(nvars);
  auto pin = [&](int fn, std::uint64_t minterm, bool value) {
    pins[fn][minterm] = value;
  };

  for (int s = 0; s < m.num_states(); ++s) {
    // Rest point: outputs hold their rest value, state code holds.
    const std::uint64_t rest_tot = total(rest[s], s);
    for (int sig = 0; sig < nsig; ++sig) {
      if (m.is_input(sig)) continue;
      pin(sig, rest_tot, rest[s] >> sig & 1);
    }
    for (int b = 0; b < state_bits; ++b)
      pin(nsig + b, rest_tot, (s >> b) & 1);

    for (const auto& arc : m.arcs(s)) {
      // Completed input burst, still in old state code: outputs and state
      // bits head for their new values.
      std::uint32_t after_in = rest[s];
      for (const Edge& e : arc.inputs) after_in ^= 1u << e.signal;
      std::uint32_t after_out = after_in;
      for (const Edge& e : arc.outputs) after_out ^= 1u << e.signal;
      const std::uint64_t trig = total(after_in, s);
      for (int sig = 0; sig < nsig; ++sig) {
        if (m.is_input(sig)) continue;
        pin(sig, trig, after_out >> sig & 1);
      }
      for (int b = 0; b < state_bits; ++b)
        pin(nsig + b, trig, (arc.next_state >> b) & 1);

      // Fundamental mode: while the burst is only PARTIALLY complete the
      // machine must hold its rest outputs and state — otherwise outputs
      // fire before the burst finishes (a glitch the 3D flow forbids).
      const int k = static_cast<int>(arc.inputs.size());
      for (std::uint32_t subset = 1; subset + 1 < (1u << k); ++subset) {
        std::uint32_t partial = rest[s];
        for (int i = 0; i < k; ++i) {
          if (subset >> i & 1) partial ^= 1u << arc.inputs[i].signal;
        }
        const std::uint64_t tot = total(partial, s);
        for (int sig = 0; sig < nsig; ++sig) {
          if (m.is_input(sig)) continue;
          pin(sig, tot, rest[s] >> sig & 1);
        }
        for (int b = 0; b < state_bits; ++b)
          pin(nsig + b, tot, (s >> b) & 1);
      }
      // New rest point is pinned when we visit next_state.
    }
  }

  BmSynthResult result;
  result.state_bits = state_bits;
  result.netlist = Netlist(m.name() + "_bm");
  Netlist& nl = result.netlist;

  std::vector<int> var_net(nvars);
  const std::uint32_t init_rest = rest[m.initial_state()];
  for (int sig = 0; sig < nsig; ++sig) {
    const bool init = init_rest >> sig & 1;
    if (m.is_input(sig))
      var_net[sig] = nl.add_primary_input(m.signal(sig).name, init);
    else {
      var_net[sig] = nl.add_net(m.signal(sig).name, init);
      nl.mark_primary_output(var_net[sig]);
    }
  }
  for (int b = 0; b < state_bits; ++b) {
    const bool init = (m.initial_state() >> b) & 1;
    var_net[nsig + b] = nl.add_net("y" + std::to_string(b), init);
  }

  // Covers mapped with shared inverters; state bits loop back through the
  // combinational logic (fundamental-mode feedback).
  CoverMapper mapper(&nl, var_net);
  for (int i = 0; i < nvars; ++i) {
    if (i < nsig && m.is_input(i)) continue;
    OnOffSet f{nvars, {}, {}};
    for (const auto& [minterm, value] : pins[i])
      (value ? f.on : f.off).push_back(minterm);
    const Cover cover = minimize(f);
    result.literals += cover.num_literals();
    mapper.map_cover_into(cover, var_net[i],
                          nl.net(var_net[i]).name + "_f");
  }
  nl.validate();
  return result;
}

BmMachine fifo_bm() {
  BmMachine m("fifo");
  const int li = m.add_signal("li", SignalKind::kInput);
  const int ri = m.add_signal("ri", SignalKind::kInput);
  const int lo = m.add_signal("lo", SignalKind::kOutput);
  const int ro = m.add_signal("ro", SignalKind::kOutput);
  const int s0 = m.add_state(), s1 = m.add_state(), s2 = m.add_state();
  m.set_initial(s0);
  using P = Polarity;
  m.add_arc(s0, BmBurst{{{li, P::kRise}},
                        {{lo, P::kRise}, {ro, P::kRise}},
                        s1});
  m.add_arc(s1, BmBurst{{{li, P::kFall}, {ri, P::kRise}},
                        {{lo, P::kFall}, {ro, P::kFall}},
                        s2});
  m.add_arc(s2, BmBurst{{{ri, P::kFall}}, {}, s0});
  return m;
}

Stg bm_to_stg(const BmMachine& m) {
  Stg stg(m.name() + "_bmstg");
  for (int s = 0; s < m.num_signals(); ++s)
    stg.add_signal(m.signal(s).name, m.signal(s).kind);

  // Linear cycle: all inputs of a burst join into every output; outputs
  // join into the next burst's inputs. Silent transitions bridge empty
  // output bursts.
  std::vector<std::vector<int>> burst_tail(m.num_states());
  std::vector<std::vector<int>> burst_head(m.num_states());
  std::vector<int> order;
  int state = m.initial_state();
  do {
    RTCAD_EXPECTS(m.arcs(state).size() == 1);
    order.push_back(state);
    const BmBurst& arc = m.arcs(state)[0];
    std::vector<int> ins, outs;
    for (const Edge& e : arc.inputs) ins.push_back(stg.add_transition(e));
    if (arc.outputs.empty()) {
      outs.push_back(stg.add_transition(std::nullopt));
    } else {
      for (const Edge& e : arc.outputs) outs.push_back(stg.add_transition(e));
    }
    for (int i : ins)
      for (int o : outs) stg.add_arc_tt(i, o);
    burst_head[state] = ins;
    burst_tail[state] = outs;
    state = arc.next_state;
  } while (state != m.initial_state());

  for (std::size_t k = 0; k < order.size(); ++k) {
    const int s = order[k];
    const int next = order[(k + 1) % order.size()];
    const bool wrap = (k + 1 == order.size());
    for (int o : burst_tail[s])
      for (int i : burst_head[next])
        stg.add_arc_tt(o, i, wrap ? 1 : 0);
  }
  stg.validate();
  return stg;
}

}  // namespace rtcad
