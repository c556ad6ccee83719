// Figure 2: the RT synthesis design flow, exercised end-to-end on the
// benchmark suite. For each specification the bench reports every stage:
// reachability, state encoding, assumption generation, lazy state graph,
// logic synthesis, back-annotation. Timings of the state-graph layers
// (build, transpose, excitation, memory gauges, CSC candidate cost) live
// in perfbench's layer suite; see perfbench/README.md.
#include <cstdio>

#include "flow/flow.hpp"
#include "stg/builders.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace rtcad;

int main() {
  std::puts("=== Figure 2: RT synthesis flow, per-stage report ===\n");

  struct Case {
    const char* name;
    Stg spec;
    FlowOptions opts;
  };
  std::vector<Case> cases;
  {
    FlowOptions si;
    si.mode = FlowMode::kSpeedIndependent;
    FlowOptions rt;
    rt.mode = FlowMode::kRelativeTiming;
    cases.push_back({"fifo_csc/SI", fifo_csc_stg(), si});
    cases.push_back({"fifo_csc/RT", fifo_csc_stg(), rt});
    cases.push_back({"fifo_si/SI", fifo_si_stg(), si});
    cases.push_back({"celement/SI", celement_stg(), si});
    cases.push_back({"toggle/SI", toggle_stg(), si});
    cases.push_back({"vme/SI", vme_stg(), si});
    for (int n : {2, 3, 4}) {
      cases.push_back({"pipeline/SI", pipeline_stg(n), si});
      cases.back().opts.mode = FlowMode::kSpeedIndependent;
    }
  }

  TextTable t({"spec", "mode", "states", "reduced", "csc sig", "literals",
               "trans", "constraints"});
  bool all_ok = true;
  for (auto& c : cases) {
    try {
      const FlowResult r = run_flow(c.spec, c.opts);
      std::printf("--- %s (%s)\n", c.spec.name().c_str(), c.name);
      for (const auto& s : r.stages)
        std::printf("    [%s] %s\n", s.name.c_str(), s.detail.c_str());
      t.add_row({c.spec.name(),
                 c.opts.mode == FlowMode::kRelativeTiming ? "RT" : "SI",
                 strprintf("%d", r.states), strprintf("%d", r.states_reduced),
                 strprintf("%d", r.state_signals_added),
                 strprintf("%d", r.literals()),
                 strprintf("%d", r.netlist().transistor_count()),
                 strprintf("%zu", r.rt ? r.rt->constraints.size() : 0)});
    } catch (const Error& e) {
      std::printf("--- %s FAILED: %s\n", c.name, e.what());
      all_ok = false;
    }
  }
  std::puts("");
  t.print();

  std::printf("\nshape check: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
