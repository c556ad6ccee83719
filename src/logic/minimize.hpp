// Exact two-level minimization: prime generation followed by unate
// covering. Sized for asynchronous controller next-state functions:
// exact primes matter because speed-independent covers must respect
// monotonicity constraints checked by the synthesizer downstream.
//
// A function is given by its ON and OFF codes alone; every other code is
// a don't-care. Synthesis lists only the reachable codes of a state
// graph, so the function's size follows the graph, not the 2^n code
// space, and any signal count a state code holds (64) fits.
//
// Primes are generated from the OFF set, not from the ON and DC
// minterms (Nelson's theorem): start from the tautology and remove the
// OFF minterms one at a time. Removing minterm m replaces every cube c
// that contains m by the cubes c·l_v, one per variable v free in c, where
// l_v is the literal of v that disagrees with m; the new cubes that an
// untouched cube contains are dropped. What remains is exactly the set
// of primes of ON ∪ DC. The cost scales with the OFF minterms times the
// primes, so the don't-care space a reduced state graph leaves behind
// (every unreachable code) costs nothing to enumerate.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/cube.hpp"

namespace rtcad {

/// Incompletely specified single-output function over `nvars` <= 64
/// variables: 1 on the `on` codes, 0 on the `off` codes, free elsewhere.
/// Both lists are ascending and disjoint.
struct OnOffSet {
  int nvars = 0;
  std::vector<std::uint64_t> on;
  std::vector<std::uint64_t> off;

  /// True if `cover` is 1 on every ON code and 0 on every OFF code.
  bool is_implemented_by(const Cover& cover) const;
};

struct MinimizeOptions {
  /// Use exact branch-and-bound covering when the prime/minterm matrix is
  /// small enough; otherwise essential + greedy covering.
  bool exact_cover = true;
  /// Branch-and-bound size guard (primes * onset minterms).
  std::size_t exact_limit = 200000;
};

/// All prime implicants of (ON ∪ DC), including primes that cover only
/// DC minterms, in the canonical order: literal count descending, then
/// `care` ascending, then `value` ascending.
///
/// The order is a contract, not a detail. The covering step breaks ties
/// by prime index (first essential, first greedy pick, first branch), so
/// a different order can select a different, equally small cover and
/// change every netlist, golden and cache key downstream. It is the order
/// Quine-McCluskey merging emits (level by level, each level sorted by
/// care then value), which the tests keep as the reference.
std::vector<Cube> prime_implicants(const OnOffSet& f);

/// Minimum(ish) SOP cover of f: covers all ON minterms, avoids all OFF
/// minterms, may use DC minterms freely. Cube count is minimized first,
/// then literal count among selected primes.
Cover minimize(const OnOffSet& f, const MinimizeOptions& opts = {});

}  // namespace rtcad
