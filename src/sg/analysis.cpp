#include "sg/analysis.hpp"

#include <algorithm>
#include <bit>

namespace rtcad {

namespace {

// Whether no two states share a code, read off a bitmap over the codes' low
// `key_bits` bits (every bit above them is the same in all codes). Stops at
// the first repeat.
bool codes_unique(const StateGraph& sg, int key_bits) {
  std::vector<std::uint64_t> seen(((std::size_t{1} << key_bits) + 63) / 64);
  const std::uint64_t key_mask = (std::uint64_t{1} << key_bits) - 1;
  for (int s = 0; s < sg.num_states(); ++s) {
    const std::uint64_t key = sg.code(s) & key_mask;
    const std::uint64_t bit = std::uint64_t{1} << (key % 64);
    if (seen[key / 64] & bit) return false;
    seen[key / 64] |= bit;
  }
  return true;
}

}  // namespace

SgAnalysis analyze(const StateGraph& sg, std::size_t max_reported) {
  const Stg& stg = sg.stg();
  const int n = sg.num_states();
  SgAnalysis out;

  // --- output persistency --------------------------------------------
  // A screen first: the rise and fall masks of the state's non-input
  // out-edges, minus the signal of the edge that fires, must stay excited
  // at that edge's successor. A state fails the screen exactly when it
  // holds a violation, so only those states run the pairwise loop, which
  // reports in state order, then out-edge order.
  struct TransitionMasks {
    std::uint64_t rise = 0, fall = 0;          // its non-input edge's bit
    std::uint64_t others = ~std::uint64_t{0};  // every signal but its own
  };
  std::vector<TransitionMasks> masks(
      static_cast<std::size_t>(stg.num_transitions()));
  for (int t = 0; t < stg.num_transitions(); ++t) {
    const auto& label = stg.transition(t).label;
    if (!label) continue;
    const std::uint64_t bit = std::uint64_t{1} << label->signal;
    masks[t].others = ~bit;
    if (stg.is_input(label->signal)) continue;
    if (label->pol == Polarity::kRise)
      masks[t].rise = bit;
    else
      masks[t].fall = bit;
  }
  for (int s = 0; s < n; ++s) {
    std::uint64_t rise = 0, fall = 0;
    for (const auto& [t, to] : sg.out_edges(s)) {
      rise |= masks[t].rise;
      fall |= masks[t].fall;
    }
    if ((rise | fall) == 0) continue;
    bool passes = true;
    for (const auto& [t2, to2] : sg.out_edges(s)) {
      if (((rise & ~sg.excited_rise_mask(to2)) |
           (fall & ~sg.excited_fall_mask(to2))) &
          masks[t2].others) {
        passes = false;
        break;
      }
    }
    if (passes) continue;
    for (const auto& [t, to] : sg.out_edges(s)) {
      const auto& label = stg.transition(t).label;
      if (!label) continue;
      if (stg.is_input(label->signal)) continue;  // inputs may be disabled
      for (const auto& [t2, to2] : sg.out_edges(s)) {
        if (t2 == t) continue;
        const auto& label2 = stg.transition(t2).label;
        if (label2 && label2->signal == label->signal) continue;
        // After t2 fires, the edge of t must still be excited.
        if (!sg.excited(to2, *label)) {
          if (out.persistency.size() < max_reported)
            out.persistency.push_back({s, t, t2});
        }
      }
    }
  }

  // --- complete state coding -------------------------------------------
  // Within a code class, all states must agree on the next-state target of
  // every non-input signal. Bits equal in every code order nothing and are
  // left out of the key.
  std::uint64_t any = 0, all = ~std::uint64_t{0};
  for (int s = 0; s < n; ++s) {
    any |= sg.code(s);
    all &= sg.code(s);
  }
  const int key_bits = std::bit_width(any & ~all);
  const int state_bits = std::bit_width(static_cast<unsigned>(n));
  // Codes that never repeat form no class. When the key space is small next
  // to the state count (a bitmap of at most 2 bytes a state: 128 KB for
  // pipeline19's 20-bit codes), one pass over it shows that, and the sort
  // below and its scratch are skipped.
  if (key_bits <= state_bits + 3 && codes_unique(sg, key_bits)) return out;

  // A stable LSD radix sort of the state ids keyed on the code lays the
  // classes out in code order, each in ascending state order. A digit is at
  // most as many bits as the state count has, so the bucket counts take no
  // more room than the ids, and codes no wider than that sort in one pass.
  std::uint64_t noninput_mask = 0;
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    if (!stg.is_input(sig)) noninput_mask |= std::uint64_t{1} << sig;
  }
  const int passes =
      key_bits == 0 ? 0 : (key_bits + state_bits - 1) / state_bits;
  const int digit_bits = passes == 0 ? 0 : (key_bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit_bits;
  // One buffer: the ids, the scatter target, the bucket counts.
  std::vector<std::uint32_t> buffer(2 * static_cast<std::size_t>(n) + buckets);
  std::uint32_t* ids = buffer.data();
  std::uint32_t* scatter = ids + n;
  std::uint32_t* count = scatter + n;
  for (int s = 0; s < n; ++s) ids[s] = static_cast<std::uint32_t>(s);
  for (int shift = 0; shift < key_bits; shift += digit_bits) {
    const auto digit = [&](std::uint32_t s) {
      return static_cast<std::size_t>(sg.code(static_cast<int>(s)) >> shift) &
             (buckets - 1);
    };
    std::fill_n(count, buckets, 0);
    for (int i = 0; i < n; ++i) ++count[digit(ids[i])];
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < buckets; ++d) {
      const std::uint32_t c = count[d];
      count[d] = sum;
      sum += c;
    }
    for (int i = 0; i < n; ++i) scatter[count[digit(ids[i])]++] = ids[i];
    std::swap(ids, scatter);
  }

  // Inside a class of two or more states, sort by (target signature,
  // state), so the distinct signatures come in ascending order, each led
  // by its lowest state, and move those leaders to the front of the class.
  const auto signature = [&](std::uint32_t state) {
    // target_value() of every signal at once: a rising edge heads to 1, a
    // falling one to 0, a stable signal stays at its value.
    const int s = static_cast<int>(state);
    const std::uint64_t code = sg.code(s);
    return (sg.excited_rise_mask(s) | (code & ~sg.excited_fall_mask(s))) &
           noninput_mask;
  };
  // Equal codes share a bucket of the last pass, and count[] now holds
  // each bucket's end, so only buckets of two or more ids are walked.
  if (passes == 0) count[0] = static_cast<std::uint32_t>(n);
  for (std::size_t d = 0, bucket = 0; d < buckets; bucket = count[d++]) {
    const int bucket_end = static_cast<int>(count[d]);
    if (bucket_end - static_cast<int>(bucket) < 2) continue;
    for (int begin = static_cast<int>(bucket), end; begin < bucket_end;
         begin = end) {
      const std::uint64_t code = sg.code(static_cast<int>(ids[begin]));
      end = begin + 1;
      while (end < bucket_end && sg.code(static_cast<int>(ids[end])) == code)
        ++end;
      if (end - begin < 2) continue;
      ++out.usc_classes;
      if (out.csc_conflicts.size() >= max_reported) continue;
      std::sort(ids + begin, ids + end, [&](std::uint32_t a, std::uint32_t b) {
        const std::uint64_t sa = signature(a), sb = signature(b);
        return sa != sb ? sa < sb : a < b;
      });
      int leaders = begin + 1;
      for (int i = begin + 1; i < end; ++i) {
        if (signature(ids[i]) != signature(ids[leaders - 1]))
          ids[leaders++] = ids[i];
      }
      // Report a conflict between each pair of distinct signatures.
      for (int a = begin; a < leaders; ++a) {
        for (int b = a + 1; b < leaders; ++b) {
          if (out.csc_conflicts.size() >= max_reported) break;
          out.csc_conflicts.push_back(
              {static_cast<int>(ids[a]), static_cast<int>(ids[b]),
               signature(ids[a]) ^ signature(ids[b])});
        }
      }
    }
  }
  return out;
}

std::string describe(const StateGraph& sg, const CscConflict& c) {
  const Stg& stg = sg.stg();
  std::string out = "CSC conflict between states " +
                    std::to_string(c.state_a) + " and " +
                    std::to_string(c.state_b) + " (code ";
  for (int sig = stg.num_signals() - 1; sig >= 0; --sig)
    out += sg.value(c.state_a, sig) ? '1' : '0';
  out += ") on signals {";
  bool first = true;
  for (int sig = 0; sig < stg.num_signals(); ++sig) {
    if (!(c.differing_signals >> sig & 1)) continue;
    if (!first) out += ", ";
    out += stg.signal(sig).name;
    first = false;
  }
  out += "}";
  return out;
}

std::string describe(const StateGraph& sg, const PersistencyViolation& v) {
  const Stg& stg = sg.stg();
  return "state " + std::to_string(v.state) + ": firing " +
         stg.transition_name(v.by_transition) + " disables " +
         stg.transition_name(v.disabled_transition);
}

}  // namespace rtcad
