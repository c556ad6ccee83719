// MarkingArena: the contiguous fixed-stride marking store behind every
// StateGraph. Covers the container itself (both row formats: stride,
// append/row, encode/decode), the build integration (row == state id,
// rows match a reference replay, the row format picked from the input)
// and the filtered() contract: reduced graphs share the root arena and
// address rows through root state ids, adding zero marking bytes per
// reduction round.
#include <gtest/gtest.h>

#include <cstring>

#include "rt/generate.hpp"
#include "rt/reduce.hpp"
#include "sg/arena.hpp"
#include "sg/stategraph.hpp"
#include "stg/builders.hpp"

namespace rtcad {
namespace {

using Format = MarkingArena::Format;

TEST(MarkingArena, AppendRowCopyRoundTrip) {
  MarkingArena arena(3, Format::kBytes);
  EXPECT_EQ(arena.stride(), 3);
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.bytes(), 0u);

  const std::uint8_t a[3] = {1, 0, 2};
  const std::uint8_t b[3] = {0, 0, 0};
  EXPECT_EQ(arena.append(a), 0u);
  EXPECT_EQ(arena.append(b), 1u);
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(arena.bytes(), 6u);

  EXPECT_EQ(std::memcmp(arena.row(0), a, 3), 0);
  EXPECT_EQ(std::memcmp(arena.row(1), b, 3), 0);
  EXPECT_TRUE(arena.row_equals(0, a));
  EXPECT_FALSE(arena.row_equals(1, a));
  EXPECT_EQ(arena.copy(0), Marking({1, 0, 2}));
  EXPECT_EQ(arena.copy(1), Marking({0, 0, 0}));
}

/// The i-th 1-safe test marking: place p holds a token when bit p % 64 of
/// a pattern that mixes `i` into all 64 bit lanes is set.
Marking pattern_marking(int places, int i) {
  Marking m(static_cast<std::size_t>(places));
  std::uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
  for (int p = 0; p < places; ++p) {
    if (p % 64 == 0) x ^= x >> 29;
    m[static_cast<std::size_t>(p)] =
        static_cast<std::uint8_t>((x >> (p % 64)) & 1);
  }
  return m;
}

TEST(MarkingArena, BitRowsRoundTripAcrossWordBoundaries) {
  for (const int places : {1, 63, 64, 65, 128, 129}) {
    MarkingArena arena(places, Format::kBits);
    const int words = (places + 63) / 64;
    EXPECT_EQ(arena.stride(), 8 * words) << places << " places";
    std::vector<Marking> reference;
    std::vector<std::uint8_t> row(static_cast<std::size_t>(arena.stride()));
    for (int i = 0; i < 64; ++i) {
      reference.push_back(pattern_marking(places, i));
      arena.encode(reference.back(), row.data());
      ASSERT_EQ(arena.append(row.data()), static_cast<std::uint32_t>(i));
    }
    // Single tokens at each end and on both sides of every word boundary:
    // a decode with the wrong bit order or word order cannot pass these.
    for (int p : {0, 62, 63, 64, 65, 127, 128, places - 1}) {
      if (p >= places) continue;
      Marking one(static_cast<std::size_t>(places), 0);
      one[static_cast<std::size_t>(p)] = 1;
      reference.push_back(one);
      arena.encode(one, row.data());
      arena.append(row.data());
      std::uint64_t word;
      std::memcpy(&word, row.data() + 8 * (p / 64), 8);
      EXPECT_EQ(word, std::uint64_t{1} << (p % 64))
          << places << " places, token on " << p;
      // The explore loop's masks come from encode_set(): same layout.
      std::vector<std::uint8_t> set(row.size(), 0xff);
      arena.encode_set({p}, set.data());
      EXPECT_EQ(set, row) << places << " places, token on " << p;
    }
    ASSERT_EQ(arena.size(), reference.size());
    EXPECT_EQ(arena.bytes(), reference.size() * 8 * words);
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(arena.copy(static_cast<std::uint32_t>(i)), reference[i])
          << places << " places, row " << i;
  }
}

TEST(MarkingArena, RowsSurviveReallocation) {
  // 70 places: a bit row spans two words. 70,000 rows are 1.1 MB of bit
  // rows and 4.9 MB of byte rows, so in both formats the rows move from a
  // malloc block into a mapping and then grow inside it.
  constexpr int kRows = 70'000;
  for (const Format format : {Format::kBytes, Format::kBits}) {
    MarkingArena arena(70, format);
    std::vector<std::uint8_t> row(static_cast<std::size_t>(arena.stride()));
    for (int i = 0; i < kRows; ++i) {
      arena.encode(pattern_marking(70, i), row.data());
      ASSERT_EQ(arena.append(row.data()), static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(arena.bytes(),
              std::size_t{kRows} * static_cast<std::size_t>(arena.stride()));
    EXPECT_GT(arena.bytes(), GrowBuf<std::uint8_t>::kMapBytes);
    for (int i = 0; i < kRows; ++i) {
      const auto slot = static_cast<std::uint32_t>(i);
      const Marking m = pattern_marking(70, i);
      arena.encode(m, row.data());
      ASSERT_TRUE(arena.row_equals(slot, row.data())) << "row " << i;
      ASSERT_EQ(arena.copy(slot), m) << "row " << i;
    }
  }
}

TEST(StateGraphArena, RowFormatFollowsTheInput) {
  // pipeline12 is 1-safe: 48 places fit one 64-bit word, so every state
  // costs 8 bytes. A silent fall back to byte rows would cost 48.
  const Stg pipe = pipeline_stg(12);
  ASSERT_EQ(pipe.num_places(), 48);
  const StateGraph p = StateGraph::build(pipe);
  EXPECT_EQ(p.arena_bytes(), static_cast<std::size_t>(p.num_states()) * 8);

  // ring9 puts a second token on a place within a few states: the bit attempt
  // is abandoned and the graph lives in byte rows, one byte per place.
  const Stg ring = ring_stg(9);
  const StateGraph r = StateGraph::build(ring);
  EXPECT_EQ(r.arena_bytes(), static_cast<std::size_t>(r.num_states()) *
                                 static_cast<std::size_t>(ring.num_places()));
  int two_tokens = 0;
  for (int s = 0; s < r.num_states(); ++s) {
    for (std::uint8_t k : r.marking_copy(s)) two_tokens += k > 1;
  }
  EXPECT_GT(two_tokens, 0);
}

TEST(StateGraphArena, CsrGaugeCountsSixBytesAnEdge) {
  // The forward CSR takes 4 bytes a row and 6 an edge (a 4-byte successor
  // and a 16-bit transition id), and each state two 8-byte excitation
  // masks. A transpose adds its own rows and edges at the same widths.
  const StateGraph p = StateGraph::build(pipeline_stg(12));
  const auto n = static_cast<std::size_t>(p.num_states());
  const auto m = static_cast<std::size_t>(p.num_edges());
  const std::size_t forward = 4 * (n + 1) + 6 * m + 16 * n;
  EXPECT_EQ(p.csr_bytes(), forward);
  StateGraph t = p;
  t.rebuild_reverse_csr();
  EXPECT_EQ(t.csr_bytes(), forward + 4 * (n + 1) + 6 * m);
  EXPECT_EQ(p.csr_bytes(), forward);  // the copy derived its own
}

TEST(StateGraphArena, BuildRowsMatchTokenGameReplay) {
  for (const Stg& stg : {pipeline_stg(4), ring_stg(5)}) {
    const StateGraph sg = StateGraph::build(stg);
    EXPECT_EQ(sg.marking_copy(0), stg.initial_marking());
    // Every edge's successor marking must be what firing the edge's
    // transition on the source marking yields — the decoded arena rows ARE
    // the markings.
    sg.for_each_edge([&](int from, int transition, int to) {
      EXPECT_EQ(stg.fire(sg.marking_copy(from), transition),
                sg.marking_copy(to))
          << stg.name() << " edge " << from << " -[" << transition << "]-> "
          << to;
    });
  }
}

TEST(StateGraphArena, FilteredGraphSharesRootArenaAndRemapsSlots) {
  // fifo under ring-environment assumptions: a real reduction (states
  // disappear, ids are renumbered) on a spec with silent transitions.
  const StateGraph sg = StateGraph::build(fifo_stg());
  GenerateOptions gen;
  gen.ring_environment = true;
  const auto assumptions = generate_assumptions(sg, gen);
  ASSERT_FALSE(assumptions.empty());
  const ReduceResult red = reduce(sg, assumptions);
  ASSERT_LT(red.sg.num_states(), sg.num_states());

  // Shared arena: the reduction added no marking bytes, and each surviving
  // state decodes to its original state's marking.
  EXPECT_EQ(red.sg.arena_bytes(), sg.arena_bytes());
  for (int s = 0; s < red.sg.num_states(); ++s) {
    EXPECT_EQ(red.sg.marking_copy(s), sg.marking_copy(red.sg.old_state_of(s)))
        << "state " << s;
  }

  // A second-level filter (chained reduction) still addresses the ROOT
  // arena: old_state_of composes, and it names the row.
  const StateGraph twice =
      red.sg.filtered([](int, int) { return true; });
  EXPECT_EQ(twice.arena_bytes(), sg.arena_bytes());
  for (int s = 0; s < twice.num_states(); ++s)
    EXPECT_EQ(twice.marking_copy(s), sg.marking_copy(twice.old_state_of(s)))
        << "state " << s;
}

}  // namespace
}  // namespace rtcad
