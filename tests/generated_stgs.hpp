// Specifications built in code for tests: seeded random STGs for fuzzing,
// and wide or long single-ring specs for the signal and transition limits.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stg/stg.hpp"
#include "util/rng.hpp"

namespace rtcad {

/// A bounded random STG from one or two ring backbones (rise-before-fall
/// interleaving keeps a lone ring consistent) plus random cross arcs, which
/// inject the interesting regimes on purpose:
///
///  * two free-running rings  -> real concurrency (wide BFS frontiers);
///  * a signal whose rise and fall land in different rings -> firing
///    counts diverge -> consistency errors;
///  * a cross arc fed by one ring faster than the other drains it ->
///    token-bound / state-cap errors;
///  * sync arcs without tokens -> deadlocks (legal, just terminal states).
inline Stg random_stg(std::uint64_t seed) {
  Rng rng(seed);
  Stg stg("fuzz" + std::to_string(seed));
  const int num_signals = 2 + static_cast<int>(rng.below(3));  // 2..4
  const int num_rings = 1 + static_cast<int>(rng.below(2));    // 1..2

  std::vector<std::vector<int>> rings(num_rings);
  std::vector<std::pair<int, int>> edges_of;  // signal -> (rise, fall)
  for (int s = 0; s < num_signals; ++s) {
    static const SignalKind kinds[] = {SignalKind::kInput, SignalKind::kOutput,
                                       SignalKind::kInternal};
    const int sig = stg.add_signal(std::string(1, static_cast<char>('a' + s)),
                                   kinds[rng.below(3)]);
    const int rise = stg.add_transition(Edge{sig, Polarity::kRise});
    const int fall = stg.add_transition(Edge{sig, Polarity::kFall});
    edges_of.emplace_back(rise, fall);
    const int r = static_cast<int>(rng.below(num_rings));
    rings[r].push_back(rise);
    // Occasionally split a signal across rings: its firing counts can then
    // diverge, which is the consistency-error regime.
    const bool split = num_rings > 1 && rng.chance(0.15);
    rings[split ? 1 - r : r].push_back(fall);
  }

  for (auto& ring : rings) {
    if (ring.empty()) continue;
    // Fisher-Yates shuffle, then restore rise-before-fall for signals whose
    // two transitions share this ring, so a lone ring is always consistent.
    for (std::size_t i = ring.size(); i > 1; --i)
      std::swap(ring[i - 1], ring[rng.below(i)]);
    for (const auto& [rise, fall] : edges_of) {
      int rise_at = -1, fall_at = -1;
      for (std::size_t i = 0; i < ring.size(); ++i) {
        if (ring[i] == rise) rise_at = static_cast<int>(i);
        if (ring[i] == fall) fall_at = static_cast<int>(i);
      }
      if (rise_at >= 0 && fall_at >= 0 && fall_at < rise_at)
        std::swap(ring[rise_at], ring[fall_at]);
    }
    for (std::size_t i = 0; i < ring.size(); ++i) {
      stg.add_arc_tt(ring[i], ring[(i + 1) % ring.size()],
                     i + 1 == ring.size() ? 1 : 0);
    }
  }

  // Random cross arcs: synchronization, extra concurrency, deadlock, and
  // (between rings running at different rates) unboundedness.
  const int num_t = stg.num_transitions();
  const int extra = static_cast<int>(rng.below(4));
  for (int e = 0; e < extra; ++e) {
    const int a = static_cast<int>(rng.below(num_t));
    const int b = static_cast<int>(rng.below(num_t));
    if (a == b) continue;
    stg.add_arc_tt(a, b, static_cast<std::uint8_t>(rng.below(2)));
  }
  return stg;
}

/// One ring s0+ s0- s1+ s1- ... over `n` signals, s0 an input and the rest
/// outputs: 2n states. Every state between two pulses has the all-zero
/// code but a different output heading high, so the spec has CSC
/// conflicts for any n >= 2.
inline Stg wide_ring_stg(int n) {
  Stg stg("wide" + std::to_string(n));
  std::vector<int> ring;
  for (int i = 0; i < n; ++i) {
    const int sig = stg.add_signal("s" + std::to_string(i),
                                   i == 0 ? SignalKind::kInput
                                          : SignalKind::kOutput);
    ring.push_back(stg.add_transition(Edge{sig, Polarity::kRise}));
    ring.push_back(stg.add_transition(Edge{sig, Polarity::kFall}));
  }
  for (std::size_t i = 0; i < ring.size(); ++i)
    stg.add_arc_tt(ring[i], ring[(i + 1) % ring.size()],
                   i + 1 == ring.size() ? 1 : 0);
  return stg;
}

/// One ring a+ a- eps eps ... of `n` transitions (n >= 2), `n` places and
/// one token, built in O(n) so that specs past Stg::kMaxTransitions stay
/// cheap to make.
inline Stg long_ring_stg(int n) {
  Stg stg("long" + std::to_string(n));
  const int a = stg.add_signal("a", SignalKind::kOutput);
  std::vector<int> ring = {stg.add_transition(Edge{a, Polarity::kRise}),
                           stg.add_transition(Edge{a, Polarity::kFall})};
  while (static_cast<int>(ring.size()) < n)
    ring.push_back(stg.add_transition(std::nullopt));
  for (int i = 0; i < n; ++i) {
    const int p = stg.add_place("p" + std::to_string(i), i + 1 == n ? 1 : 0);
    stg.add_arc_tp(ring[i], p);
    stg.add_arc_pt(p, ring[(i + 1) % n]);
  }
  return stg;
}

/// The Johnson counter ring s0+ s1+ ... s(n-1)+ s0- s1- ... s(n-1)- over
/// `n` signals, s0 an input and the rest outputs: 2n states with distinct
/// codes, so CSC holds and every output is a buffer of its predecessor.
inline Stg johnson_stg(int n) {
  Stg stg("johnson" + std::to_string(n));
  std::vector<int> rises, falls;
  for (int i = 0; i < n; ++i) {
    const int sig = stg.add_signal("s" + std::to_string(i),
                                   i == 0 ? SignalKind::kInput
                                          : SignalKind::kOutput);
    rises.push_back(stg.add_transition(Edge{sig, Polarity::kRise}));
    falls.push_back(stg.add_transition(Edge{sig, Polarity::kFall}));
  }
  std::vector<int> ring = rises;
  ring.insert(ring.end(), falls.begin(), falls.end());
  for (std::size_t i = 0; i < ring.size(); ++i)
    stg.add_arc_tt(ring[i], ring[(i + 1) % ring.size()],
                   i + 1 == ring.size() ? 1 : 0);
  return stg;
}

}  // namespace rtcad
