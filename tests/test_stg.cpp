#include <gtest/gtest.h>

#include "generated_stgs.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "stg/stg.hpp"

namespace rtcad {
namespace {

TEST(Stg, BuildAndTokenGame) {
  Stg stg("t");
  const int a = stg.add_signal("a", SignalKind::kInput);
  const int b = stg.add_signal("b", SignalKind::kOutput);
  const int ap = stg.add_transition(Edge{a, Polarity::kRise});
  const int bp = stg.add_transition(Edge{b, Polarity::kRise});
  const int am = stg.add_transition(Edge{a, Polarity::kFall});
  const int bm = stg.add_transition(Edge{b, Polarity::kFall});
  stg.add_arc_tt(ap, bp);
  stg.add_arc_tt(bp, am);
  stg.add_arc_tt(am, bm);
  stg.add_arc_tt(bm, ap, 1);
  stg.validate();

  Marking m = stg.initial_marking();
  auto en = stg.enabled_transitions(m);
  ASSERT_EQ(en.size(), 1u);
  EXPECT_EQ(en[0], ap);
  m = stg.fire(m, ap);
  en = stg.enabled_transitions(m);
  ASSERT_EQ(en.size(), 1u);
  EXPECT_EQ(en[0], bp);
}

TEST(Stg, TransitionNames) {
  Stg stg("t");
  const int a = stg.add_signal("a", SignalKind::kInput);
  const int t1 = stg.add_transition(Edge{a, Polarity::kRise});
  EXPECT_EQ(stg.transition_name(t1), "a+");
  const int t2 = stg.add_transition(Edge{a, Polarity::kRise});
  EXPECT_EQ(stg.transition_name(t1), "a+/1");
  EXPECT_EQ(stg.transition_name(t2), "a+/2");
}

TEST(Stg, FindTransition) {
  Stg stg = toggle_stg();
  EXPECT_GE(stg.find_transition("out+"), 0);
  EXPECT_GE(stg.find_transition("in+/2"), 0);
  EXPECT_EQ(stg.find_transition("nope+"), -1);
  // "in+" is ambiguous (2 instances).
  EXPECT_THROW(stg.find_transition("in+"), SpecError);
}

TEST(Stg, ValidateRejectsUnbalancedSignal) {
  Stg stg("bad");
  const int a = stg.add_signal("a", SignalKind::kInput);
  const int b = stg.add_signal("b", SignalKind::kOutput);
  const int ap = stg.add_transition(Edge{a, Polarity::kRise});
  const int bp = stg.add_transition(Edge{b, Polarity::kRise});
  stg.add_arc_tt(ap, bp);
  stg.add_arc_tt(bp, ap, 1);
  EXPECT_THROW(stg.validate(), SpecError);  // a never falls
}

TEST(Stg, ValidateRejectsSourcelessTransition) {
  Stg stg("bad2");
  const int a = stg.add_signal("a", SignalKind::kInput);
  stg.add_transition(Edge{a, Polarity::kRise});
  stg.add_transition(Edge{a, Polarity::kFall});
  EXPECT_THROW(stg.validate(), SpecError);
}

TEST(Stg, ValidateRejectsMoreThan64Signals) {
  // State codes are one 64-bit word: a 65th signal is a spec error, not a
  // contract abort in the state-graph builder.
  EXPECT_NO_THROW(wide_ring_stg(Stg::kMaxSignals).validate());
  EXPECT_THROW(wide_ring_stg(Stg::kMaxSignals + 1).validate(), SpecError);
}

TEST(Stg, ValidateRejectsRepeatedArcs) {
  // The token game has no arc weights: `p0 a+ a+` would pass the enabled
  // test with one token on p0 and then take two (a uint8 wrap to 255).
  const auto handshake = [](Stg* stg, int* p0, int* rise, int* fall) {
    const int a = stg->add_signal("a", SignalKind::kOutput);
    *rise = stg->add_transition(Edge{a, Polarity::kRise});
    *fall = stg->add_transition(Edge{a, Polarity::kFall});
    *p0 = stg->add_place("p0", 1);
    stg->add_arc_tt(*rise, *fall);
  };
  const auto message = [](const Stg& stg) {
    try {
      stg.validate();
    } catch (const SpecError& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };

  Stg pre("pre");
  int p0, rise, fall;
  handshake(&pre, &p0, &rise, &fall);
  pre.add_arc_pt(p0, rise);
  pre.add_arc_pt(p0, rise);
  pre.add_arc_tp(fall, p0);
  EXPECT_EQ(message(pre),
            "transition 'a+' lists place 'p0' twice in its pre set; arcs "
            "carry no weight");

  Stg post("post");
  handshake(&post, &p0, &rise, &fall);
  post.add_arc_pt(p0, rise);
  post.add_arc_tp(fall, p0);
  post.add_arc_tp(fall, p0);
  EXPECT_EQ(message(post),
            "transition 'a-' lists place 'p0' twice in its post set; arcs "
            "carry no weight");

  // A place on both sides of one transition is a self-loop, not a repeat.
  Stg loop("loop");
  handshake(&loop, &p0, &rise, &fall);
  loop.add_arc_pt(p0, rise);
  loop.add_arc_tp(rise, p0);
  loop.add_arc_pt(p0, fall);
  loop.add_arc_tp(fall, p0);
  EXPECT_EQ(message(loop), "(no error)");
}

TEST(MarkingHash, ReadsExactlyTheMarkingAndEveryByteOfIt) {
  // Each marking is the whole of its own heap block, so reading past byte
  // n is a heap overflow under ASan. Every single-bit flip must change the
  // hash: a tail read short would leave the markings that differ only in
  // their last n % 8 bytes on one probe chain.
  for (std::size_t n = 0; n <= 40; ++n) {
    Marking m(n);
    for (std::size_t i = 0; i < n; ++i)
      m[i] = static_cast<std::uint8_t>(i * 37 + n);
    const std::size_t h = marking_hash(m.data(), n);
    EXPECT_EQ(marking_hash(m), h);
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        m[i] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_NE(marking_hash(m.data(), n), h)
            << "length " << n << ", byte " << i << ", bit " << bit;
        m[i] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
  }
}

TEST(Stg, RemoveArc) {
  Stg stg("r");
  const int a = stg.add_signal("a", SignalKind::kInput);
  const int b = stg.add_signal("b", SignalKind::kOutput);
  const int ap = stg.add_transition(Edge{a, Polarity::kRise});
  const int bp = stg.add_transition(Edge{b, Polarity::kRise});
  const int p = stg.add_arc_tt(ap, bp);
  stg.remove_arc_pt(p, bp);
  EXPECT_TRUE(stg.place(p).post.empty());
  EXPECT_TRUE(stg.transition(bp).pre.empty());
  stg.remove_arc_tp(ap, p);
  EXPECT_TRUE(stg.place(p).pre.empty());
}

TEST(Builders, AllValidate) {
  EXPECT_NO_THROW(fifo_stg());
  EXPECT_NO_THROW(fifo_csc_stg());
  EXPECT_NO_THROW(fifo_si_stg());
  EXPECT_NO_THROW(celement_stg());
  EXPECT_NO_THROW(vme_stg());
  EXPECT_NO_THROW(toggle_stg());
  for (int n = 1; n <= 5; ++n) EXPECT_NO_THROW(pipeline_stg(n));
}

TEST(Builders, FifoShape) {
  const Stg f = fifo_stg();
  EXPECT_EQ(f.num_signals(), 4);
  EXPECT_EQ(f.num_transitions(), 9);  // 8 edges + eps
  const Stg fx = fifo_csc_stg();
  EXPECT_EQ(fx.num_signals(), 5);
  EXPECT_EQ(fx.signal(fx.signal_id("x")).kind, SignalKind::kInternal);
}

TEST(Parse, SimpleHandshake) {
  const std::string text = R"(
# four-phase handshake
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
)";
  const Stg stg = parse_stg_string(text);
  EXPECT_EQ(stg.name(), "hs");
  EXPECT_EQ(stg.num_signals(), 2);
  EXPECT_EQ(stg.num_transitions(), 4);
  const Marking m = stg.initial_marking();
  auto en = stg.enabled_transitions(m);
  ASSERT_EQ(en.size(), 1u);
  EXPECT_EQ(stg.transition_name(en[0]), "req+");
}

TEST(Parse, ExplicitPlacesAndInstances) {
  const std::string text = R"(
.model two
.inputs a
.outputs z
.graph
a+/1 z+
z+ a-/1
a-/1 p0
p0 a+/2
a+/2 z-
z- a-/2
a-/2 p1
p1 a+/1
.marking { p1 }
.end
)";
  const Stg stg = parse_stg_string(text);
  EXPECT_EQ(stg.num_transitions(), 6);
  EXPECT_GE(stg.find_transition("a+/2"), 0);
}

TEST(Parse, DummyTransitions) {
  const std::string text = R"(
.model d
.inputs a
.outputs z
.dummy e
.graph
a+ e
e z+
z+ a-
a- z-
z- a+
.marking { <z-,a+> }
.end
)";
  const Stg stg = parse_stg_string(text);
  int silent = 0;
  for (int t = 0; t < stg.num_transitions(); ++t)
    if (stg.transition(t).is_silent()) ++silent;
  EXPECT_EQ(silent, 1);
}

TEST(Parse, MultiTokenMarking) {
  const std::string text = R"(
.model m
.inputs a
.outputs z
.graph
a+ z+
z+ a-
a- z-
z- p
p a+
.marking { p=2 }
.end
)";
  const Stg stg = parse_stg_string(text);
  const Marking m = stg.initial_marking();
  int total = 0;
  for (auto c : m) total += c;
  EXPECT_EQ(total, 2);
}

TEST(Parse, Errors) {
  EXPECT_THROW(parse_stg_string(".model x\n.graph\nfoo+ bar+\n.end\n"),
               ParseError);
  EXPECT_THROW(parse_stg_string(".model x\n.inputs a\n.end\n"), ParseError);
  EXPECT_THROW(
      parse_stg_string(".model x\n.inputs a\n.outputs z\n.graph\na+ z+\nz+ "
                       "a-\na- z-\nz- a+\n.marking { <nope+,a+> }\n.end\n"),
      ParseError);
}

TEST(Parse, RoundTripFifo) {
  const Stg original = fifo_stg();
  const std::string text = write_stg(original);
  const Stg reparsed = parse_stg_string(text);
  EXPECT_EQ(reparsed.num_signals(), original.num_signals());
  EXPECT_EQ(reparsed.num_transitions(), original.num_transitions());
  EXPECT_EQ(reparsed.num_places(), original.num_places());
  // Same number of initial tokens.
  int t0 = 0, t1 = 0;
  for (auto c : original.initial_marking()) t0 += c;
  for (auto c : reparsed.initial_marking()) t1 += c;
  EXPECT_EQ(t0, t1);
}

TEST(Parse, RoundTripAllBuilders) {
  for (const Stg& stg : {fifo_csc_stg(), celement_stg(), vme_stg(),
                         toggle_stg(), pipeline_stg(3)}) {
    const Stg re = parse_stg_string(write_stg(stg));
    EXPECT_EQ(re.num_signals(), stg.num_signals()) << stg.name();
    EXPECT_EQ(re.num_transitions(), stg.num_transitions()) << stg.name();
  }
}

}  // namespace
}  // namespace rtcad
