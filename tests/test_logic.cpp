#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "logic/cube.hpp"
#include "logic/minimize.hpp"
#include "util/rng.hpp"

namespace rtcad {
namespace {

struct CubeHash {
  std::size_t operator()(const Cube& c) const {
    return std::hash<std::uint64_t>{}(c.care * 0x9e3779b97f4a7c15ull ^
                                      c.value);
  }
};

/// The function over `nvars` <= 10 variables whose value at minterm m is
/// `at(m)`: '1' ON, '0' OFF, anything else a don't-care.
template <typename At>
OnOffSet tabulate(int nvars, At at) {
  OnOffSet f{nvars, {}, {}};
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << nvars); ++m) {
    const char v = at(m);
    if (v == '1') f.on.push_back(m);
    if (v == '0') f.off.push_back(m);
  }
  return f;
}

/// True if `cover` is 1 on some OFF code of f.
bool hits_off(const OnOffSet& f, const Cover& cover) {
  return std::any_of(f.off.begin(), f.off.end(),
                     [&](std::uint64_t m) { return cover.eval(m); });
}

/// Reference prime generator: Quine-McCluskey merging from every ON and
/// DC minterm. It emits primes level by level (literal count descending),
/// each level sorted by (care, value) — the canonical order
/// prime_implicants() promises.
std::vector<Cube> qm_prime_implicants(const OnOffSet& f) {
  const int n = f.nvars;
  // Level 0: all ON and DC minterms (every code not OFF) as full-care
  // cubes.
  std::unordered_set<Cube, CubeHash> current;
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
    if (!std::binary_search(f.off.begin(), f.off.end(), m))
      current.insert(Cube::minterm(m, n));
  }

  std::vector<Cube> primes;
  while (!current.empty()) {
    std::unordered_set<Cube, CubeHash> next;
    std::unordered_set<Cube, CubeHash> merged;
    // Group by care mask; only same-care cubes can QM-merge.
    std::vector<Cube> cubes(current.begin(), current.end());
    std::sort(cubes.begin(), cubes.end(), [](const Cube& a, const Cube& b) {
      return a.care != b.care ? a.care < b.care : a.value < b.value;
    });
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      for (std::size_t j = i + 1;
           j < cubes.size() && cubes[j].care == cubes[i].care; ++j) {
        const std::uint64_t diff = cubes[i].value ^ cubes[j].value;
        if (__builtin_popcountll(diff) == 1) {
          next.insert(Cube{cubes[i].care & ~diff, cubes[i].value & ~diff});
          merged.insert(cubes[i]);
          merged.insert(cubes[j]);
        }
      }
    }
    for (const auto& c : cubes) {
      if (!merged.count(c)) primes.push_back(c);
    }
    current = std::move(next);
  }
  return primes;
}

TEST(Cube, MintermAndCoverage) {
  const Cube c = Cube::minterm(0b101, 3);
  EXPECT_EQ(c.num_literals(), 3);
  EXPECT_TRUE(c.covers_minterm(0b101));
  EXPECT_FALSE(c.covers_minterm(0b111));
}

TEST(Cube, LiteralManipulation) {
  Cube c;
  c.set_literal(0, true);
  c.set_literal(2, false);
  EXPECT_EQ(c.literal(0), 1);
  EXPECT_EQ(c.literal(1), 0);
  EXPECT_EQ(c.literal(2), -1);
  EXPECT_TRUE(c.covers_minterm(0b001));
  EXPECT_TRUE(c.covers_minterm(0b011));
  EXPECT_FALSE(c.covers_minterm(0b101));
  c.drop_literal(2);
  EXPECT_TRUE(c.covers_minterm(0b101));
}

TEST(Cube, Containment) {
  Cube big;  // a
  big.set_literal(0, true);
  Cube small;  // a b'
  small.set_literal(0, true);
  small.set_literal(1, false);
  EXPECT_TRUE(big.covers(small));
  EXPECT_FALSE(small.covers(big));
  EXPECT_TRUE(Cube::tautology().covers(big));
}

TEST(Cube, Intersection) {
  Cube a;  // x0
  a.set_literal(0, true);
  Cube b;  // x0'
  b.set_literal(0, false);
  EXPECT_FALSE(a.intersects(b));
  Cube c;  // x1
  c.set_literal(1, true);
  EXPECT_TRUE(a.intersects(c));
}

TEST(Cube, ToString) {
  Cube c;
  c.set_literal(0, true);
  c.set_literal(1, false);
  EXPECT_EQ(c.to_string({"a", "b"}), "a b'");
  EXPECT_EQ(Cube::tautology().to_string({"a", "b"}), "1");
}

TEST(Cover, EvalAndLiterals) {
  Cover f(2);
  Cube c0;
  c0.set_literal(0, true);  // a
  Cube c1;
  c1.set_literal(1, true);  // b
  f.cubes = {c0, c1};
  EXPECT_TRUE(f.eval(0b01));
  EXPECT_TRUE(f.eval(0b10));
  EXPECT_FALSE(f.eval(0b00));
  EXPECT_EQ(f.num_literals(), 2);
}

TEST(Cover, RemoveContained) {
  Cover f(2);
  Cube a;  // covers everything with x0=1
  a.set_literal(0, true);
  Cube ab;
  ab.set_literal(0, true);
  ab.set_literal(1, true);
  f.cubes = {a, ab, a};
  f.remove_contained();
  ASSERT_EQ(f.cubes.size(), 1u);
  EXPECT_EQ(f.cubes[0], a);
}

TEST(Minimize, AndFunction) {
  const OnOffSet f{2, {0b11}, {0b00, 0b01, 0b10}};
  const Cover c = minimize(f);
  ASSERT_EQ(c.cubes.size(), 1u);
  EXPECT_EQ(c.num_literals(), 2);
}

TEST(Minimize, XorNeedsTwoCubes) {
  const OnOffSet f{2, {0b01, 0b10}, {0b00, 0b11}};
  const Cover c = minimize(f);
  EXPECT_EQ(c.cubes.size(), 2u);
  EXPECT_EQ(c.num_literals(), 4);
}

TEST(Minimize, DontCaresMergeCubes) {
  // ON = {00}, DC = {01, 10, 11}: minimal cover is the tautology.
  const OnOffSet f{2, {0b00}, {}};
  const Cover c = minimize(f);
  ASSERT_EQ(c.cubes.size(), 1u);
  EXPECT_TRUE(c.cubes[0].is_tautology());
}

TEST(Minimize, ConstantZero) {
  const OnOffSet f = tabulate(3, [](std::uint64_t) { return '0'; });
  const Cover c = minimize(f);
  EXPECT_TRUE(c.empty());
}

TEST(Minimize, ClassicFourVariable) {
  // f = sum of minterms {4,8,10,11,12,15}, dc {9,14} -- a textbook QM
  // example whose minimum has 4 cubes / 9 literals or fewer.
  const OnOffSet f = tabulate(4, [](std::uint64_t m) {
    for (std::uint64_t on : {4, 8, 10, 11, 12, 15})
      if (m == on) return '1';
    return m == 9 || m == 14 ? '-' : '0';
  });
  const Cover c = minimize(f);
  EXPECT_TRUE(f.is_implemented_by(c));
  EXPECT_LE(c.cubes.size(), 4u);
}

TEST(Minimize, SixtyFourVariables) {
  // ON = {all ones}, OFF = {0}: every positive literal is a prime, and
  // the first of them in canonical order (x0) is the cover.
  const OnOffSet f{64, {~std::uint64_t{0}}, {0}};
  const std::vector<Cube> primes = prime_implicants(f);
  ASSERT_EQ(primes.size(), 64u);
  for (int v = 0; v < 64; ++v)
    EXPECT_EQ(primes[v], Cube(std::uint64_t{1} << v, std::uint64_t{1} << v));
  const Cover c = minimize(f);
  ASSERT_EQ(c.cubes.size(), 1u);
  EXPECT_EQ(c.cubes[0], primes[0]);
  EXPECT_TRUE(f.is_implemented_by(c));
}

class MinimizeRandom : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandom, CoverIsCorrectAndIrredundant) {
  // Property: for random incompletely-specified functions, minimize()
  // implements the spec and never uses more cubes than the ON-set size.
  Rng rng(GetParam());
  const int nvars = 3 + static_cast<int>(rng.below(4));  // 3..6
  const OnOffSet f = tabulate(nvars, [&](std::uint64_t) {
    const double p = rng.uniform();
    return p < 0.3 ? '1' : p < 0.5 ? '-' : '0';
  });
  const std::size_t on = f.on.size();
  const Cover c = minimize(f);
  EXPECT_TRUE(f.is_implemented_by(c));
  EXPECT_FALSE(hits_off(f, c));
  EXPECT_LE(c.cubes.size(), std::max<std::size_t>(on, 1));
  // Every cube must be a prime implicant (maximal): dropping any literal
  // hits the OFF set.
  for (const auto& cube : c.cubes) {
    for (int v = 0; v < nvars; ++v) {
      if (cube.literal(v) == 0) continue;
      Cube weaker = cube;
      weaker.drop_literal(v);
      Cover w(nvars);
      w.cubes = {weaker};
      EXPECT_TRUE(hits_off(f, w))
          << "cube not prime for seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeRandom, ::testing::Range(1, 33));

TEST(Primes, AllPrimesOfSmallFunction) {
  // f(a,b) = a'b + ab' + ab = a + b; primes: {a, b}.
  const OnOffSet f{2, {0b01, 0b10, 0b11}, {0b00}};
  const auto primes = prime_implicants(f);
  EXPECT_EQ(primes.size(), 2u);
  for (const auto& p : primes) EXPECT_EQ(p.num_literals(), 1);
}

TEST(Primes, MatchQuineMcCluskeyOnRandomFunctions) {
  // Same vector as the reference, order included, across sizes and OFF
  // densities: sparse OFF (the reduced-state-graph case, mostly DC) to
  // dense. Non-OFF minterms split evenly between ON and DC.
  for (const double off_density : {0.05, 0.2, 0.5}) {
    for (int n = 0; n <= 10; ++n) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 1000 + static_cast<std::uint64_t>(n));
        const OnOffSet f = tabulate(n, [&](std::uint64_t) {
          if (rng.chance(off_density)) return '0';
          return rng.chance(0.5) ? '1' : '-';
        });
        EXPECT_EQ(prime_implicants(f), qm_prime_implicants(f))
            << "n=" << n << " off_density=" << off_density
            << " seed=" << seed;
      }
    }
  }
}

TEST(Primes, MatchQuineMcCluskeyOnEdgeCases) {
  // n = 0: the constant functions.
  const OnOffSet zero{0, {}, {0}};
  EXPECT_TRUE(prime_implicants(zero).empty());
  const OnOffSet one{0, {0}, {}};
  EXPECT_EQ(prime_implicants(one), std::vector<Cube>{Cube::tautology()});

  // All OFF: no primes.
  const OnOffSet all_off = tabulate(4, [](std::uint64_t) { return '0'; });
  EXPECT_TRUE(prime_implicants(all_off).empty());
  EXPECT_EQ(prime_implicants(all_off), qm_prime_implicants(all_off));

  // No OFF minterm: the tautology is the only prime.
  const OnOffSet no_off =
      tabulate(4, [](std::uint64_t m) { return m % 3 == 0 ? '-' : '1'; });
  EXPECT_EQ(prime_implicants(no_off), std::vector<Cube>{Cube::tautology()});
  EXPECT_EQ(prime_implicants(no_off), qm_prime_implicants(no_off));

  // A single OFF minterm m: one single-literal prime per variable, each
  // the literal disagreeing with m.
  const OnOffSet single_off =
      tabulate(4, [](std::uint64_t m) { return m == 0b0101 ? '0' : '1'; });
  const std::vector<Cube> singles = prime_implicants(single_off);
  ASSERT_EQ(singles.size(), 4u);
  for (const Cube& p : singles) {
    EXPECT_EQ(p.num_literals(), 1);
    EXPECT_FALSE(p.covers_minterm(0b0101));
  }
  EXPECT_EQ(singles, qm_prime_implicants(single_off));

  // ON = {00}, DC = {11}: the prime ab covers only a DC minterm and must
  // still be generated (the exact-cover guard counts every prime).
  const OnOffSet dc_only{2, {0b00}, {0b01, 0b10}};
  const std::vector<Cube> primes = prime_implicants(dc_only);
  EXPECT_EQ(primes, (std::vector<Cube>{Cube{0b11, 0b00}, Cube{0b11, 0b11}}));
  EXPECT_EQ(primes, qm_prime_implicants(dc_only));
}

}  // namespace
}  // namespace rtcad
