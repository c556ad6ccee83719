#include "stg/stg.hpp"

#include <algorithm>

namespace rtcad {

int Stg::add_signal(const std::string& name, SignalKind kind) {
  RTCAD_EXPECTS(!name.empty());
  if (signal_index_.count(name))
    throw SpecError("duplicate signal '" + name + "'");
  const int id = static_cast<int>(signals_.size());
  signals_.push_back(Signal{name, kind, -1});
  signal_index_[name] = id;
  return id;
}

int Stg::signal_id(const std::string& name) const {
  auto it = signal_index_.find(name);
  return it == signal_index_.end() ? -1 : it->second;
}

std::vector<std::string> Stg::signal_names() const {
  std::vector<std::string> names;
  names.reserve(signals_.size());
  for (const auto& s : signals_) names.push_back(s.name);
  return names;
}

int Stg::add_place(const std::string& name, std::uint8_t tokens) {
  const int id = static_cast<int>(places_.size());
  places_.push_back(StgPlace{name, {}, {}, tokens});
  return id;
}

int Stg::add_transition(std::optional<Edge> label, int instance) {
  if (label) {
    RTCAD_EXPECTS(label->signal >= 0 && label->signal < num_signals());
  }
  const int id = static_cast<int>(transitions_.size());
  if (instance == 0) {
    // Auto-assign: next unused instance for this edge.
    if (label) {
      int max_inst = 0;
      for (const auto& t : transitions_) {
        if (t.label == label) max_inst = std::max(max_inst, t.instance);
      }
      instance = max_inst + 1;
    } else {
      instance = next_silent_instance_++;
    }
  }
  transitions_.push_back(StgTransition{label, instance, {}, {}});
  return id;
}

void Stg::add_arc_pt(int place, int transition) {
  RTCAD_EXPECTS(place >= 0 && place < num_places());
  RTCAD_EXPECTS(transition >= 0 && transition < num_transitions());
  places_[place].post.push_back(transition);
  transitions_[transition].pre.push_back(place);
}

void Stg::add_arc_tp(int transition, int place) {
  RTCAD_EXPECTS(place >= 0 && place < num_places());
  RTCAD_EXPECTS(transition >= 0 && transition < num_transitions());
  places_[place].pre.push_back(transition);
  transitions_[transition].post.push_back(place);
}

int Stg::add_arc_tt(int from_transition, int to_transition,
                    std::uint8_t tokens) {
  const std::string name = "<" + transition_name(from_transition) + "," +
                           transition_name(to_transition) + ">";
  const int p = add_place(name, tokens);
  add_arc_tp(from_transition, p);
  add_arc_pt(p, to_transition);
  return p;
}

namespace {
void erase_one(std::vector<int>& v, int value) {
  auto it = std::find(v.begin(), v.end(), value);
  RTCAD_EXPECTS(it != v.end());
  v.erase(it);
}
}  // namespace

void Stg::remove_arc_tp(int transition, int place) {
  erase_one(places_[place].pre, transition);
  erase_one(transitions_[transition].post, place);
}

void Stg::remove_arc_pt(int place, int transition) {
  erase_one(places_[place].post, transition);
  erase_one(transitions_[transition].pre, place);
}

int Stg::find_transition(const Edge& e, int instance) const {
  int found = -1;
  for (int t = 0; t < num_transitions(); ++t) {
    const auto& tr = transitions_[t];
    if (!tr.label || !(*tr.label == e)) continue;
    if (instance != 0) {
      if (tr.instance == instance) return t;
    } else {
      if (found >= 0)
        throw SpecError("ambiguous transition reference '" + edge_text(e) +
                        "' (multiple instances)");
      found = t;
    }
  }
  return found;
}

int Stg::find_transition(const std::string& edge_text_in) const {
  std::string text = edge_text_in;
  int instance = 0;
  if (auto slash = text.find('/'); slash != std::string::npos) {
    instance = std::stoi(text.substr(slash + 1));
    text = text.substr(0, slash);
  }
  if (text.empty()) return -1;
  const char last = text.back();
  if (last != '+' && last != '-') return -1;
  const int sig = signal_id(text.substr(0, text.size() - 1));
  if (sig < 0) return -1;
  return find_transition(
      Edge{sig, last == '+' ? Polarity::kRise : Polarity::kFall}, instance);
}

std::string Stg::edge_text(const Edge& e) const {
  return signals_[e.signal].name + (e.pol == Polarity::kRise ? "+" : "-");
}

std::string Stg::transition_name(int t) const {
  const auto& tr = transitions_[t];
  std::string base = tr.is_silent() ? "eps" : edge_text(*tr.label);
  // Print the instance only when needed for uniqueness.
  bool unique = true;
  for (int o = 0; o < num_transitions(); ++o) {
    if (o != t && transitions_[o].label == tr.label) {
      unique = false;
      break;
    }
  }
  if (unique && !tr.is_silent()) return base;
  return base + "/" + std::to_string(tr.instance);
}

Marking Stg::initial_marking() const {
  Marking m(places_.size());
  for (std::size_t p = 0; p < places_.size(); ++p)
    m[p] = places_[p].initial_tokens;
  return m;
}

bool Stg::enabled(const Marking& m, int t) const {
  for (int p : transitions_[t].pre) {
    if (m[p] == 0) return false;
  }
  return true;
}

std::vector<int> Stg::enabled_transitions(const Marking& m) const {
  std::vector<int> out;
  for (int t = 0; t < num_transitions(); ++t) {
    if (enabled(m, t)) out.push_back(t);
  }
  return out;
}

Marking Stg::fire(const Marking& m, int t) const {
  RTCAD_EXPECTS(enabled(m, t));
  Marking next = m;
  for (int p : transitions_[t].pre) --next[p];
  for (int p : transitions_[t].post) {
    if (next[p] == 255)
      throw SpecError("place '" + places_[p].name + "' exceeds token bound");
    ++next[p];
  }
  return next;
}

int Stg::count_edges(int signal, Polarity pol) const {
  int n = 0;
  for (const auto& t : transitions_) {
    if (t.label && t.label->signal == signal && t.label->pol == pol) ++n;
  }
  return n;
}

void Stg::check_limits() const {
  if (num_signals() > kMaxSignals)
    throw SpecError("STG has " + std::to_string(num_signals()) +
                    " signals; at most " + std::to_string(kMaxSignals) +
                    " are supported");
  if (num_transitions() > kMaxTransitions)
    throw SpecError("STG has " + std::to_string(num_transitions()) +
                    " transitions; at most " +
                    std::to_string(kMaxTransitions) + " are supported");
}

void Stg::validate() const {
  if (transitions_.empty()) throw SpecError("STG has no transitions");
  check_limits();
  // The token game has no arc weights: a place listed twice would be
  // checked for one token but lose (or gain) two.
  std::vector<int> seen(places_.size(), -1);
  const auto reject_repeats = [&](int t, const std::vector<int>& places,
                                  const char* side, int stamp) {
    for (int p : places) {
      if (seen[p] == stamp)
        throw SpecError("transition '" + transition_name(t) +
                        "' lists place '" + places_[p].name + "' twice in " +
                        "its " + side + " set; arcs carry no weight");
      seen[p] = stamp;
    }
  };
  for (int t = 0; t < num_transitions(); ++t) {
    const auto& tr = transitions_[t];
    if (tr.pre.empty())
      throw SpecError("transition '" + transition_name(t) +
                      "' has no input places (would be always enabled)");
    reject_repeats(t, tr.pre, "pre", 2 * t);
    reject_repeats(t, tr.post, "post", 2 * t + 1);
  }
  for (int s = 0; s < num_signals(); ++s) {
    const int rises = count_edges(s, Polarity::kRise);
    const int falls = count_edges(s, Polarity::kFall);
    if (rises + falls == 0)
      throw SpecError("signal '" + signals_[s].name +
                      "' has no transitions in the STG");
    if ((rises == 0) != (falls == 0))
      throw SpecError("signal '" + signals_[s].name +
                      "' rises but never falls (or vice versa); the STG "
                      "cannot be consistent");
  }
  for (int p = 0; p < num_places(); ++p) {
    const auto& pl = places_[p];
    if (pl.pre.empty() && pl.post.empty())
      throw SpecError("place '" + pl.name + "' is isolated");
    if (pl.pre.empty() && pl.initial_tokens == 0)
      throw SpecError("place '" + pl.name +
                      "' is a source place with no initial token; its post-"
                      "transitions can never fire");
  }
}

}  // namespace rtcad
