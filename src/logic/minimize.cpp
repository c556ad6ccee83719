#include "logic/minimize.hpp"

#include <algorithm>

namespace rtcad {

bool OnOffSet::is_implemented_by(const Cover& cover) const {
  for (const std::uint64_t m : on)
    if (!cover.eval(m)) return false;
  for (const std::uint64_t m : off)
    if (cover.eval(m)) return false;
  return true;
}

std::vector<Cube> prime_implicants(const OnOffSet& f) {
  const int n = f.nvars;
  const std::uint64_t all_vars =
      n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
  // Invariant: `primes` holds exactly the primes of the function that is
  // 1 everywhere except on the OFF minterms processed so far; no cube in
  // it contains another.
  std::vector<Cube> primes{Cube::tautology()};
  std::vector<Cube> split;
  // absorbers[v]: care masks, minus v, of the kept cubes whose only
  // literal disagreeing with the current OFF minterm is on variable v.
  std::vector<std::vector<std::uint64_t>> absorbers(n);
  for (const std::uint64_t m : f.off) {
    split.clear();
    for (auto& bucket : absorbers) bucket.clear();
    std::size_t kept = 0;
    for (const Cube& c : primes) {
      const std::uint64_t clash = (c.value ^ m) & c.care;
      if (clash == 0) {
        split.push_back(c);
        continue;
      }
      if ((clash & (clash - 1)) == 0)
        absorbers[__builtin_ctzll(clash)].push_back(c.care & ~clash);
      primes[kept++] = c;
    }
    primes.resize(kept);
    // c contains m, so c minus m is covered by the cubes c·l_v, one per
    // free variable v, with l_v the literal disagreeing with m. Two such
    // cubes never contain one another; a kept cube u contains c·l_v only
    // if l_v is u's one literal disagreeing with m and u's other literals
    // (which agree with m, as all of c's do) are among c's.
    for (const Cube& c : split) {
      for (std::uint64_t free = all_vars & ~c.care; free; free &= free - 1) {
        const int v = __builtin_ctzll(free);
        const bool absorbed = std::any_of(
            absorbers[v].begin(), absorbers[v].end(),
            [&](std::uint64_t rest) { return (rest & ~c.care) == 0; });
        if (absorbed) continue;
        const std::uint64_t bit = std::uint64_t{1} << v;
        primes.push_back(Cube{c.care | bit, c.value | (~m & bit)});
      }
    }
  }
  std::sort(primes.begin(), primes.end(), [](const Cube& a, const Cube& b) {
    const int la = a.num_literals(), lb = b.num_literals();
    if (la != lb) return la > lb;
    return a.care != b.care ? a.care < b.care : a.value < b.value;
  });
  return primes;
}

namespace {

/// Unate covering: choose a subset of `primes` covering every index in
/// `targets` (ON-set minterms). Returns selected prime indices.
class CoverSolver {
 public:
  CoverSolver(const std::vector<Cube>& primes,
              const std::vector<std::uint64_t>& targets, bool exact,
              std::size_t exact_limit)
      : primes_(primes), targets_(targets) {
    covers_.resize(targets.size());
    for (std::size_t t = 0; t < targets.size(); ++t) {
      for (std::size_t p = 0; p < primes.size(); ++p) {
        if (primes[p].covers_minterm(targets[t]))
          covers_[t].push_back(p);
      }
      RTCAD_ASSERT(!covers_[t].empty());  // primes always cover ON set
    }
    exact_ = exact && primes.size() * targets.size() <= exact_limit &&
             primes.size() <= 64;
  }

  std::vector<std::size_t> solve() {
    std::vector<std::size_t> chosen = essential_plus_greedy();
    if (!exact_) return chosen;
    // Branch and bound, seeded with the greedy solution as the bound.
    best_ = chosen;
    std::vector<std::size_t> partial;
    std::vector<char> covered(targets_.size(), 0);
    mark(covered, partial, essential_only());
    branch(covered, partial);
    return best_;
  }

 private:
  std::vector<std::size_t> essential_only() {
    std::vector<std::size_t> ess;
    for (std::size_t t = 0; t < targets_.size(); ++t) {
      if (covers_[t].size() == 1) ess.push_back(covers_[t][0]);
    }
    std::sort(ess.begin(), ess.end());
    ess.erase(std::unique(ess.begin(), ess.end()), ess.end());
    return ess;
  }

  void mark(std::vector<char>& covered, std::vector<std::size_t>& partial,
            const std::vector<std::size_t>& picks) {
    for (auto p : picks) {
      partial.push_back(p);
      for (std::size_t t = 0; t < targets_.size(); ++t)
        if (primes_[p].covers_minterm(targets_[t])) covered[t] = 1;
    }
  }

  static int total_literals(const std::vector<Cube>& primes,
                            const std::vector<std::size_t>& sel) {
    int n = 0;
    for (auto i : sel) n += primes[i].num_literals();
    return n;
  }

  bool better(const std::vector<std::size_t>& a,
              const std::vector<std::size_t>& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return total_literals(primes_, a) < total_literals(primes_, b);
  }

  void branch(std::vector<char>& covered, std::vector<std::size_t>& partial) {
    // First uncovered target; there is none once `partial` covers all.
    const std::size_t t = static_cast<std::size_t>(
        std::find(covered.begin(), covered.end(), 0) - covered.begin());
    const bool complete = t == targets_.size();
    if (partial.size() >= best_.size() &&
        !(partial.size() == best_.size() && complete))
      return;  // bound on cube count
    if (complete) {
      if (better(partial, best_)) best_ = partial;
      return;
    }
    for (auto p : covers_[t]) {
      std::vector<bool> newly;
      newly.reserve(targets_.size());
      for (std::size_t i = 0; i < targets_.size(); ++i) {
        const bool add =
            !covered[i] && primes_[p].covers_minterm(targets_[i]);
        newly.push_back(add);
        if (add) covered[i] = 1;
      }
      partial.push_back(p);
      branch(covered, partial);
      partial.pop_back();
      for (std::size_t i = 0; i < targets_.size(); ++i)
        if (newly[i]) covered[i] = 0;
    }
  }

  std::vector<std::size_t> essential_plus_greedy() {
    std::vector<std::size_t> chosen = essential_only();
    std::vector<char> covered(targets_.size(), 0);
    for (auto p : chosen)
      for (std::size_t t = 0; t < targets_.size(); ++t)
        if (primes_[p].covers_minterm(targets_[t])) covered[t] = 1;
    while (std::find(covered.begin(), covered.end(), 0) != covered.end()) {
      std::size_t best_p = primes_.size();
      long best_gain = -1;
      for (std::size_t p = 0; p < primes_.size(); ++p) {
        long gain = 0;
        for (std::size_t t = 0; t < targets_.size(); ++t)
          if (!covered[t] && primes_[p].covers_minterm(targets_[t]))
            ++gain;
        // Prefer more coverage; break ties toward fewer literals.
        if (gain > best_gain ||
            (gain == best_gain && best_p < primes_.size() &&
             primes_[p].num_literals() < primes_[best_p].num_literals())) {
          best_gain = gain;
          best_p = p;
        }
      }
      RTCAD_ASSERT(best_p < primes_.size() && best_gain > 0);
      chosen.push_back(best_p);
      for (std::size_t t = 0; t < targets_.size(); ++t)
        if (primes_[best_p].covers_minterm(targets_[t])) covered[t] = 1;
    }
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    return chosen;
  }

  const std::vector<Cube>& primes_;
  const std::vector<std::uint64_t>& targets_;
  std::vector<std::vector<std::size_t>> covers_;
  std::vector<std::size_t> best_;
  bool exact_ = false;
};

}  // namespace

Cover minimize(const OnOffSet& f, const MinimizeOptions& opts) {
  Cover out(f.nvars);
  if (f.on.empty()) return out;  // constant 0

  const std::vector<Cube> primes = prime_implicants(f);
  if (primes.size() == 1 && primes[0].is_tautology()) {
    out.cubes.push_back(Cube::tautology());
    return out;
  }

  // The ON codes are ascending: the solver breaks ties by target order.
  CoverSolver solver(primes, f.on, opts.exact_cover, opts.exact_limit);
  for (auto idx : solver.solve()) out.cubes.push_back(primes[idx]);
  RTCAD_ENSURES(f.is_implemented_by(out));
  return out;
}

}  // namespace rtcad
