// Table 1: "Improvement of RAPPID over 400MHz clocked circuit".
// Paper: Throughput 3.0x | Latency 2.0x | Power 2.0x | Area -22% (RAPPID
// larger) | Testability 95.9%.
//
// The control-cell synthesis now runs the WHOLE Figure 2 pipeline
// (`--to verify-netlist`: synthesis, technology mapping, sizing,
// composed-model conformance) and emits a `BENCH_JSON:` line with the
// end-to-end wall time and the mapped netlist size, collected by the CI
// bench artifact alongside bench_table2_fifo's lines.
#include <chrono>
#include <cstdio>

#include "dft/faultsim.hpp"
#include "flow/flow.hpp"
#include "rappid/rappid.hpp"
#include "rt/assumption.hpp"
#include "stg/builders.hpp"
#include "synth/pulse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace rtcad;

int main() {
  const long kLines = 50000;
  const InstructionMix mix;
  const RappidStats r = simulate_rappid({}, mix, kLines, 42);
  const ClockedStats c = simulate_clocked({}, mix, kLines, 42);

  // Testability: stuck-at fault simulation of the asynchronous control
  // slice (the RT FIFO control cell of the tag pipeline plus the
  // pulse-mode datapath ring), as RAPPID's scan-less test did.
  FlowOptions o;
  o.mode = FlowMode::kRelativeTiming;
  o.rt.generate.outputs_beat_inputs = true;
  o.rt.allow_unfooted = true;
  o.stop_after = "verify-netlist";  // full back end: map, size, verify
  const Stg f = fifo_stg();
  o.rt.user_assumptions = {parse_assumption(f, "ri- before li+"),
                           parse_assumption(f, "ri+ before li+"),
                           parse_assumption(f, "li- before ri-")};
  const auto flow_start = std::chrono::steady_clock::now();
  const FlowResult flow = run_flow(f, o);
  const long long flow_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - flow_start)
                                .count();
  // Testability is measured on the synthesis netlist, as before: sizing
  // only rescales delays, and the fault model is per-gate.
  const FaultSimResult cell = fault_simulate(flow.netlist(), fifo_stg());
  const FaultSimResult ring =
      fault_simulate_ring(pulse_ring(4), "ro0", 40000.0);
  const double coverage =
      static_cast<double>(cell.detected + ring.detected) /
      static_cast<double>(cell.total + ring.total);

  std::puts("=== Table 1: RAPPID vs 400 MHz clocked length decoder ===");
  std::puts("paper: Throughput 3.0x | Latency 2.0x | Power 2.0x | "
            "Area -22% | Testability 95.9%\n");

  std::printf("RAPPID : %.2f GIPS, latency %.2f ns (unloaded %.2f ns), "
              "%.3f W, %ld transistors\n",
              r.gips, r.avg_latency_ps / 1000, r.first_latency_ps / 1000,
              r.watts, r.transistors);
  std::printf("clocked: %.2f GIPS, latency %.2f ns, %.3f W, %ld "
              "transistors\n\n",
              c.gips, c.avg_latency_ps / 1000, c.watts, c.transistors);

  TextTable t({"Metric", "paper", "measured"});
  t.add_row({"Throughput", "3.0 x", strprintf("%.1f x", r.gips / c.gips)});
  t.add_row({"Latency", "2.0 x",
             strprintf("%.1f x", c.avg_latency_ps / r.first_latency_ps)});
  t.add_row({"Power", "2.0 x", strprintf("%.1f x", c.watts / r.watts)});
  t.add_row({"Area", "-22%",
             strprintf("%+.0f%%",
                       -100.0 * (static_cast<double>(r.transistors) /
                                     static_cast<double>(c.transistors) -
                                 1.0))});
  t.add_row({"Testability", "95.9%", strprintf("%.1f%%", 100 * coverage)});
  t.print();

  // One greppable line per run: end-to-end pipeline wall time plus the
  // mapped control cell's size. Integer microseconds are locale-proof.
  const Netlist& mapped = flow.final_netlist();
  std::printf(
      "BENCH_JSON: {\"name\": \"table1_rappid_cell\", \"e2e_us\": %lld, "
      "\"gates\": %d, \"nets\": %d, \"transistors\": %d}\n",
      flow_us, mapped.num_gates(), mapped.num_nets(),
      mapped.transistor_count());

  const bool ok = r.gips / c.gips > 2.0 &&
                  c.avg_latency_ps > r.first_latency_ps &&
                  c.watts / r.watts > 1.5 && r.transistors > c.transistors &&
                  coverage > 0.85;
  std::printf("\nshape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
