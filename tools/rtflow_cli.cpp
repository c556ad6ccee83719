// rtflow_cli — drive the staged batch flow from the command line.
//
//   rtflow_cli run --spec fifo.g --mode rt --trace
//   rtflow_cli run --spec fifo.g --to verify-netlist --netlist-out fifo.nl
//   rtflow_cli batch --corpus builtin --threads 8
//   rtflow_cli batch --to verify-netlist --netlist-dir netlists
//   rtflow_cli shard --shard 1/3 --spec a.g --spec b.g ... --out s1.json
//   rtflow_cli sweep --spec mmu --mode rt --threads 8 --out sweep.json
//   rtflow_cli sweep --spec mmu --shard 1/3 --out sw1.json
//   rtflow_cli merge s0.json s1.json s2.json --out merged.json
//   rtflow_cli drive --shards 3 --work-dir work --corpus builtin --out m.json
//   rtflow_cli serve --socket /tmp/rtflow.sock --cache ~/.cache/rtflow
//   rtflow_cli submit --socket /tmp/rtflow.sock --spec fifo.g
//   rtflow_cli cache stats --cache ~/.cache/rtflow
//   rtflow_cli list --corpus builtin
//   rtflow_cli list-stages
//   rtflow_cli export-specs specs
//
// The default (timing-free) JSON is canonical: byte-identical across runs
// and thread counts, so `diff` against a checked-in golden file is a valid
// regression test — and `merge` of N shard files is byte-identical to the
// single-process `batch` over the same corpus (CI enforces both). The
// netlist dumps written by --netlist-out/--netlist-dir are canonical under
// the same contract — which is also what makes `--cache` sound: a cache
// hit returns the exact bytes a fresh run would produce.
//
// Exit-code contract (documented in docs/CLI.md):
//   0  success — every item ran clean
//   1  runtime failure — an item failed (its JSON diagnostic says why), an
//      input file is missing/invalid, or output could not be written
//   2  usage error — unknown command or flag, malformed value, or an
//      unknown stage name for --to (reported on stderr; nothing is
//      written)
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

using namespace rtcad;

namespace {

const char* const kGlobalUsage =
    "usage: %s <command> [options]\n"
    "\n"
    "commands:\n"
    "  run           run ONE .g specification through the flow\n"
    "  batch         run a corpus of specifications, emit canonical JSON\n"
    "  shard         run shard i of N of a corpus, emit a shard file\n"
    "  sweep         fan ONE spec out over fault/delay/environment variants\n"
    "  merge         reassemble N shard files (batch or sweep) into JSON\n"
    "  drive         launch N shard worker processes, retry crashes, merge\n"
    "  serve         long-running daemon: submissions over a Unix socket\n"
    "                and/or a TCP endpoint\n"
    "  submit        send specifications to a serve daemon (one, or a\n"
    "                whole corpus via the streamed batch verb)\n"
    "  metrics       fetch a serve daemon's metrics snapshot as JSON\n"
    "  cache         inspect or prune the content-addressed result store\n"
    "  list          print the corpus item names\n"
    "  list-stages   print the canonical flow stage names (--to targets)\n"
    "  export-specs  write the built-in builder specs as .g files\n"
    "\n"
    "`%s <command> --help` describes each command's options.\n"
    "\n"
    "exit codes: 0 success; 1 runtime failure (failed item, bad input\n"
    "file, unwritable output); 2 usage error.\n";

const char* const kCorpusFlags =
    "corpus selection:\n"
    "  --corpus builtin     every built-in specification (default when no\n"
    "                       --spec is given)\n"
    "  --spec FILE.g        add a .g STG file (repeatable; corpus order =\n"
    "                       command-line order, after the built-ins).\n"
    "                       Names like pipelineN / ringN with no such file\n"
    "                       on disk build the generated scaling spec\n"
    "  --pipeline-stages N  largest built-in pipeline (default 6)\n"
    "\n"
    "flow options (apply to --spec files; built-ins choose their own "
    "mode):\n"
    "  --mode si|rt         synthesis mode for file specs (default rt)\n"
    "  --max-states N       per-spec reachability cap (default 2^20)\n"
    "  --to STAGE           run through STAGE and stop (applies to every\n"
    "                       item; default synth — the legacy stop point).\n"
    "                       See `list-stages`; unknown names exit 2\n";

const char* const kBudgetFlags =
    "thread budget (the FlowContext levels; output is byte-identical at\n"
    "any mixture, total concurrency is the product of the levels):\n"
    "  --threads N          corpus-level workers (default: hardware\n"
    "                       concurrency; specs run in parallel)\n"
    "  --sg-threads N       excitation-sweep workers inside each state-\n"
    "                       graph build of 32k+ edges; exploration stays\n"
    "                       sequential (default 1; 0 = hardware\n"
    "                       concurrency)\n"
    "  --csc-threads N      candidate-level workers in the CSC search and\n"
    "                       the ring-environment assumption rounds\n"
    "                       (default 1; 0 = hardware concurrency)\n"
    "  --deadline-ms N      cooperative deadline for the whole command;\n"
    "                       items past it fail with kind \"cancelled\"\n";

void print_command_usage(std::FILE* to, const char* argv0,
                         const std::string& cmd) {
  if (cmd == "run") {
    std::fprintf(
        to,
        "usage: %s run --spec FILE.g [options]\n"
        "\n"
        "Run exactly one specification through the staged flow and emit\n"
        "the canonical one-item batch JSON.\n"
        "\n"
        "  --spec FILE.g        the specification (required, exactly once).\n"
        "                       A name like pipeline20 or ring12 with no\n"
        "                       such file builds the generated scaling spec\n"
        "  --mode si|rt         synthesis mode (default rt)\n"
        "  --max-states N       reachability cap (default 2^20); raise it\n"
        "                       for generated specs past pipeline19\n"
        "  --to STAGE           run through STAGE and stop (default synth;\n"
        "                       see `list-stages`). `--to verify-netlist`\n"
        "                       is the full Figure 2 flow\n"
        "  --netlist-out FILE   write the final (sized) netlist dump to\n"
        "                       FILE; requires --to map or later\n"
        "  --sg-threads N       excitation-sweep workers on graphs of 32k+\n"
        "                       edges (default 1)\n"
        "  --csc-threads N      candidate-level workers (default 1)\n"
        "  --deadline-ms N      cooperative deadline\n"
        "  --cache DIR          consult/populate the result store at DIR\n"
        "                       (hits are byte-identical to a fresh run;\n"
        "                       hit/miss reported on stderr)\n"
        "  --trace              print the structured per-stage trace\n"
        "                       (status, metrics, timing) to stderr\n"
        "  --timings            include wall-clock times in the JSON\n"
        "  --out FILE           write JSON to FILE instead of stdout\n"
        "  --help               this text\n",
        argv0);
  } else if (cmd == "batch") {
    std::fprintf(
        to,
        "usage: %s batch [options]\n"
        "\n"
        "Run the corpus on a worker pool and emit canonical JSON (the\n"
        "golden-diffed format; `--timings` adds wall clocks for humans).\n"
        "\n%s\n%s"
        "  --cache DIR          consult/populate the result store at DIR;\n"
        "                       output is byte-identical to an uncached\n"
        "                       batch (stats line on stderr)\n"
        "  --timings            include wall-clock times in the JSON\n"
        "  --out FILE           write JSON to FILE instead of stdout\n"
        "  --netlist-dir DIR    write each ok item's final netlist dump to\n"
        "                       DIR/<item>.nl; requires --to map or later\n"
        "  --help               this text\n",
        argv0, kCorpusFlags, kBudgetFlags);
  } else if (cmd == "shard") {
    std::fprintf(
        to,
        "usage: %s shard --shard I/N [options]\n"
        "\n"
        "Run the items whose corpus index ≡ I (mod N) and emit a\n"
        "versioned shard file (\"schema\": 1, records keyed by corpus\n"
        "index). Every shard process must be given the SAME corpus flags\n"
        "in the same order; `merge` reassembles N shard files into output\n"
        "byte-identical to a single-process `batch`.\n"
        "\n"
        "  --shard I/N          this process's shard (required; 0 <= I < "
        "N)\n"
        "\n%s\n%s"
        "  --out FILE           write shard JSON to FILE instead of stdout\n"
        "  --resume             requires --out FILE. Reuse the records a\n"
        "                       partial FILE already holds (recomputing\n"
        "                       only missing indices) and checkpoint FILE\n"
        "                       atomically after EVERY item, so a crashed\n"
        "                       process leaves a valid partial for the\n"
        "                       next --resume. A partial from a different\n"
        "                       corpus, flags or shard id fails loudly\n"
        "  --help               this text\n",
        argv0, kCorpusFlags, kBudgetFlags);
  } else if (cmd == "sweep") {
    std::fprintf(
        to,
        "usage: %s sweep --spec NAME|FILE.g [options]\n"
        "\n"
        "Robustness battery: run ONE specification through the flow, then\n"
        "fan it out over generated variants — every single-stuck-at fault\n"
        "site of the synthesized netlist (driven by the spec's own\n"
        "protocol), delay-window assignments sampled from a seeded grid\n"
        "(stressing the back-annotated RT constraints via metric-timed\n"
        "reduction), and environment phase offsets — and emit the\n"
        "canonical SweepReport JSON (normative schema: docs/CLI.md).\n"
        "Byte-identical at any --threads value; a --shard I/N run emits a\n"
        "sweep shard file instead, and `merge` over a complete shard set\n"
        "reproduces the single-process report byte-for-byte.\n"
        "\n"
        "  --spec NAME|FILE.g   the specification (required, exactly\n"
        "                       once): a path, a generated name\n"
        "                       (pipelineN/ringN), NAME.g, or\n"
        "                       specs/NAME.g — first match wins\n"
        "  --mode si|rt         synthesis mode (default rt; RT constraint\n"
        "                       stress needs rt)\n"
        "  --max-states N       reachability cap (default 2^20)\n"
        "  --delay-variants N   delay-grid samples (default 96)\n"
        "  --env-variants N     environment phase samples (default 64)\n"
        "  --no-faults          skip the stuck-at variants\n"
        "  --seed N             variant-grid sampler seed (default 1)\n"
        "  --sim-ps N           protocol-drive horizon per variant, in ps\n"
        "                       (default 60000)\n"
        "  --shard I/N          emit the sweep shard owning variant\n"
        "                       indices ≡ I (mod N) instead of the report\n"
        "  --threads N          variant-level workers (default: hardware\n"
        "                       concurrency)\n"
        "  --sg-threads N       excitation-sweep workers for the one\n"
        "                       state-graph build\n"
        "  --csc-threads N      candidate-level workers in the flow run\n"
        "  --deadline-ms N      cooperative deadline\n"
        "  --out FILE           write JSON to FILE instead of stdout\n"
        "  --help               this text\n"
        "\n"
        "Exit: 0 sweep ran (undetected faults / broken windows are\n"
        "FINDINGS, reported in the JSON, not failures); 1 the flow or the\n"
        "fault-free protocol run failed, or output could not be written;\n"
        "2 usage error.\n",
        argv0);
  } else if (cmd == "drive") {
    std::fprintf(
        to,
        "usage: %s drive --shards N --work-dir DIR [options]\n"
        "\n"
        "Multi-process batch: launch N `shard --resume` worker processes\n"
        "(re-executing this binary), wait for them, retry each crashed\n"
        "shard exactly once (the retry resumes the crashed worker's\n"
        "checkpoint file, so completed items are not recomputed), then\n"
        "merge in-process. The merged JSON is byte-identical to a\n"
        "single-process `batch` over the same corpus.\n"
        "\n"
        "  --shards N           number of worker processes (required)\n"
        "  --work-dir DIR       where shard_<i>.json checkpoint files go\n"
        "                       (required; created if missing; pre-existing\n"
        "                       valid partials are resumed, which is also\n"
        "                       how YOU recover from a killed drive)\n"
        "  --out FILE           write merged JSON to FILE instead of stdout\n"
        "\n"
        "Every other option (corpus selection, flow options, thread\n"
        "budget, --deadline-ms) is forwarded verbatim to every worker.\n"
        "Exit: 0 all items ok; 1 an item failed, a worker crashed twice,\n"
        "or output could not be written; 2 usage error.\n",
        argv0);
  } else if (cmd == "serve") {
    std::fprintf(
        to,
        "usage: %s serve --socket PATH|--tcp HOST:PORT [options]\n"
        "\n"
        "Flow-as-a-service: listen on a Unix-domain socket and/or a TCP\n"
        "endpoint (the SAME line protocol over both), accept submissions\n"
        "(see `submit`), schedule at most the corpus thread budget\n"
        "concurrently, stream per-stage progress, honor per-request\n"
        "deadlines, consult/populate the result store, and keep a metrics\n"
        "registry (see `metrics`). Runs until a client's `shutdown` verb\n"
        "or SIGINT/SIGTERM. Protocol spec: docs/CLI.md.\n"
        "\n"
        "  --socket PATH        Unix listening socket path. A stale socket\n"
        "                       file is replaced; a live daemon on PATH is\n"
        "                       an error\n"
        "  --tcp HOST:PORT      TCP listening endpoint (port 0 picks an\n"
        "                       ephemeral port, printed on stderr). May be\n"
        "                       combined with --socket; at least one of\n"
        "                       the two is required. A bind failure is a\n"
        "                       clean error (exit 1), never an abort\n"
        "  --cache DIR          serve hits from / store results into DIR\n"
        "                       (default: no memoization)\n"
        "  --cache-max-bytes N  LRU-prune the store back under N bytes\n"
        "                       after each store (requires --cache; the\n"
        "                       just-written entry is never evicted)\n"
        "  --threads N          max concurrently running submissions\n"
        "  --sg-threads N       excitation-sweep workers per submission\n"
        "  --csc-threads N      candidate-level workers per submission\n"
        "  --help               this text\n",
        argv0);
  } else if (cmd == "submit") {
    std::fprintf(
        to,
        "usage: %s submit --socket PATH|--connect HOST:PORT\n"
        "                 --spec FILE.g... [options]\n"
        "\n"
        "Send specifications to a running serve daemon and print the\n"
        "canonical batch JSON. One --spec: byte-identical to `run` with\n"
        "the same spec and flags. Several --spec flags (or --corpus\n"
        "builtin): the whole set streams through the daemon's `batch`\n"
        "verb on one connection, one record per item in corpus order —\n"
        "byte-identical to `batch` over the same corpus.\n"
        "\n"
        "  --socket PATH        the daemon's Unix socket\n"
        "  --connect HOST:PORT  the daemon's TCP endpoint (exactly one of\n"
        "                       --socket/--connect)\n"
        "  --spec FILE.g        specification file (repeatable)\n"
        "  --corpus builtin     submit every built-in specification\n"
        "  --pipeline-stages N  largest built-in pipeline (default 6)\n"
        "  --name NAME          item name in the record (single submit\n"
        "                       only; default: the --spec path)\n"
        "  --mode si|rt         synthesis mode (default rt)\n"
        "  --max-states N       reachability cap (default 2^20)\n"
        "  --to STAGE           run through STAGE and stop\n"
        "  --deadline-ms N      per-request deadline, enforced server-side\n"
        "  --no-cache           ask the daemon to bypass its store\n"
        "  --retries N          retry transport failures (connection\n"
        "                       refused, mid-stream disconnect) up to N\n"
        "                       times with exponential backoff (default 3;\n"
        "                       a served error is an answer, not retried)\n"
        "  --trace              print streamed stage progress to stderr\n"
        "  --out FILE           write JSON to FILE instead of stdout\n"
        "  --help               this text\n",
        argv0);
  } else if (cmd == "metrics") {
    std::fprintf(
        to,
        "usage: %s metrics --socket PATH|--connect HOST:PORT [options]\n"
        "\n"
        "Fetch a serve daemon's metrics snapshot and print it as one line\n"
        "of JSON: counters, gauges, and fixed-bucket latency histograms\n"
        "(per flow stage and per request). The schema is deterministic —\n"
        "only observed values vary between runs; the normative table is\n"
        "in docs/CLI.md.\n"
        "\n"
        "  --socket PATH        the daemon's Unix socket\n"
        "  --connect HOST:PORT  the daemon's TCP endpoint (exactly one of\n"
        "                       --socket/--connect)\n"
        "  --out FILE           write JSON to FILE instead of stdout\n"
        "  --help               this text\n",
        argv0);
  } else if (cmd == "cache") {
    std::fprintf(
        to,
        "usage: %s cache stats|clear|prune|key [options]\n"
        "\n"
        "Inspect or prune the content-addressed result store.\n"
        "\n"
        "  stats --cache DIR    entry count and total bytes\n"
        "  clear --cache DIR    delete every entry (prints how many)\n"
        "  prune --cache DIR --max-bytes N\n"
        "                       evict least-recently-used entries until\n"
        "                       the store fits in N bytes (recency = last\n"
        "                       store or cache hit; deterministic order)\n"
        "  key --spec FILE.g [--mode si|rt] [--max-states N] [--to STAGE]\n"
        "                       print the cache key those flags address —\n"
        "                       the normative key definition is in\n"
        "                       docs/CLI.md\n"
        "  --help               this text\n",
        argv0);
  } else if (cmd == "merge") {
    std::fprintf(
        to,
        "usage: %s merge SHARD.json... [options]\n"
        "\n"
        "Validate and reassemble N shard files (one per shard id) into\n"
        "the canonical batch JSON — byte-identical to running the whole\n"
        "corpus in one `batch` process. Exit code follows the batch\n"
        "contract: 1 if any merged item failed.\n"
        "\n"
        "Sweep shard files (\"kind\": \"sweep-shard\", from `sweep\n"
        "--shard`) are detected from the first file and merged into the\n"
        "canonical SweepReport instead — byte-identical to the\n"
        "single-process `sweep`. Batch and sweep shards cannot be mixed.\n"
        "Sweep merges exit 0 on success: undetected faults are findings,\n"
        "not failures.\n"
        "\n"
        "  --out FILE           write JSON to FILE instead of stdout\n"
        "  --help               this text\n",
        argv0);
  } else if (cmd == "list") {
    std::fprintf(to,
                 "usage: %s list [options]\n"
                 "\n"
                 "Print corpus item names, one per line, in corpus-index\n"
                 "order (the order shard ids are computed from).\n"
                 "\n%s"
                 "  --help               this text\n",
                 argv0, kCorpusFlags);
  } else if (cmd == "list-stages") {
    std::fprintf(to,
                 "usage: %s list-stages\n"
                 "\n"
                 "Print every canonical flow stage in Figure 2 order —\n"
                 "the names `--to STAGE` accepts — with the modes that\n"
                 "run it and a one-line description. Stages sharing a\n"
                 "rank (synth-rt, synth-si and the synth alias) are one\n"
                 "stop point.\n",
                 argv0);
  } else if (cmd == "export-specs") {
    std::fprintf(to,
                 "usage: %s export-specs DIR\n"
                 "\n"
                 "Write every built-in builder spec to DIR as .g files (the\n"
                 "reproducible half of the checked-in specs/ corpus;\n"
                 "tools/gen_golden.sh re-runs this).\n",
                 argv0);
  } else {
    std::fprintf(to, kGlobalUsage, argv0, argv0);
  }
}

/// Strict parse for thread-count options: 0 is a legal value (auto), so
/// atoi's garbage-to-0 would silently accept typos.
bool parse_thread_count(const char* val, int* out) {
  char* end = nullptr;
  const long n = std::strtol(val, &end, 10);
  if (end == val || *end != '\0' || n < 0) return false;
  *out = static_cast<int>(n);
  return true;
}

/// Parse "--shard I/N".
bool parse_shard_spec(const char* val, std::size_t* shard, std::size_t* of) {
  char* end = nullptr;
  const long i = std::strtol(val, &end, 10);
  if (end == val || *end != '/' || i < 0) return false;
  const char* rest = end + 1;
  const long n = std::strtol(rest, &end, 10);
  if (end == rest || *end != '\0' || n < 1 || i >= n) return false;
  *shard = static_cast<std::size_t>(i);
  *of = static_cast<std::size_t>(n);
  return true;
}

/// Shared option state for the corpus-running commands.
struct CliOptions {
  bool use_builtin = false;
  int pipeline_stages = 6;
  std::vector<std::string> spec_files;
  FlowOptions file_opts;     // mode + max-states for --spec files
  ThreadBudget budget;       // corpus/graph/candidate levels
  long deadline_ms = -1;
  bool timings = false;
  bool trace = false;
  std::string out_path;
  std::string netlist_out;   // run: final netlist dump file
  std::string netlist_dir;   // batch: per-item netlist dump directory
  std::size_t shard = 0, shard_of = 0;  // shard_of == 0: not given
  std::vector<std::string> positional;  // merge's shard files
  std::string cache_dir;     // run/batch/serve: result store
  bool resume = false;       // shard: reuse + checkpoint --out
  std::string socket_path;   // serve/submit/metrics
  std::string tcp;           // serve: TCP listen endpoint HOST:PORT
  std::string connect;       // submit/metrics: TCP daemon HOST:PORT
  int retries = 3;           // submit: transport-failure retry budget
  std::string submit_name;   // submit: record name override
  bool no_cache = false;     // submit: bypass the daemon's store
  long long max_bytes = -1;        // cache prune: target store size
  long long cache_max_bytes = -1;  // serve: post-store LRU cap
  int sweep_delay_variants = 96;   // sweep: delay-grid samples
  int sweep_env_variants = 64;     // sweep: environment phase samples
  unsigned long long sweep_seed = 1;  // sweep: grid sampler seed
  long sweep_sim_ps = -1;          // sweep: sim horizon (-1: default)
  bool sweep_no_faults = false;    // sweep: skip stuck-at variants
};

/// One flag of the shared vocabulary; returns true if consumed. `i` is
/// advanced past the flag's value. Sets *usage_error (message already on
/// stderr) on a malformed value.
bool parse_common_flag(int argc, char** argv, int* i, CliOptions* o,
                       bool* usage_error) {
  const char* arg = argv[*i];
  const auto need_value = [&]() -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg);
      *usage_error = true;
      return nullptr;
    }
    return argv[++*i];
  };

  if (!std::strcmp(arg, "--corpus")) {
    const char* kind = need_value();
    if (!kind) return true;
    if (std::strcmp(kind, "builtin") != 0) {
      std::fprintf(stderr, "%s: unknown corpus '%s'\n", argv[0], kind);
      *usage_error = true;
      return true;
    }
    o->use_builtin = true;
  } else if (!std::strcmp(arg, "--spec")) {
    const char* file = need_value();
    if (file) o->spec_files.push_back(file);
  } else if (!std::strcmp(arg, "--pipeline-stages")) {
    const char* val = need_value();
    if (!val) return true;
    o->pipeline_stages = std::atoi(val);
    if (o->pipeline_stages < 1) {
      std::fprintf(stderr, "%s: --pipeline-stages must be >= 1\n", argv[0]);
      *usage_error = true;
    }
  } else if (!std::strcmp(arg, "--mode")) {
    const char* mode = need_value();
    if (!mode) return true;
    if (!std::strcmp(mode, "si")) {
      o->file_opts.mode = FlowMode::kSpeedIndependent;
    } else if (!std::strcmp(mode, "rt")) {
      o->file_opts.mode = FlowMode::kRelativeTiming;
    } else {
      std::fprintf(stderr, "%s: unknown mode '%s'\n", argv[0], mode);
      *usage_error = true;
    }
  } else if (!std::strcmp(arg, "--max-states")) {
    const char* val = need_value();
    if (!val) return true;
    const long n = std::atol(val);
    if (n < 1) {
      std::fprintf(stderr, "%s: --max-states must be >= 1\n", argv[0]);
      *usage_error = true;
      return true;
    }
    o->file_opts.sg.max_states = static_cast<std::size_t>(n);
  } else if (!std::strcmp(arg, "--threads")) {
    const char* val = need_value();
    if (!val) return true;
    const int n = std::atoi(val);
    if (n < 1) {
      std::fprintf(stderr, "%s: --threads must be >= 1\n", argv[0]);
      *usage_error = true;
      return true;
    }
    o->budget.corpus = n;
  } else if (!std::strcmp(arg, "--sg-threads")) {
    const char* val = need_value();
    if (!val) return true;
    int n = 0;
    if (!parse_thread_count(val, &n)) {
      std::fprintf(stderr, "%s: %s must be a number >= 0\n", argv[0], arg);
      *usage_error = true;
      return true;
    }
    o->budget.graph = n;
  } else if (!std::strcmp(arg, "--csc-threads")) {
    // One knob for both per-candidate engines: the CSC trigger-pair
    // search and the ring-environment pending-age rounds.
    const char* val = need_value();
    if (!val) return true;
    int n = 0;
    if (!parse_thread_count(val, &n)) {
      std::fprintf(stderr, "%s: %s must be a number >= 0\n", argv[0], arg);
      *usage_error = true;
      return true;
    }
    o->budget.candidate = n;
  } else if (!std::strcmp(arg, "--deadline-ms")) {
    const char* val = need_value();
    if (!val) return true;
    char* end = nullptr;
    const long n = std::strtol(val, &end, 10);
    if (end == val || *end != '\0' || n < 0) {
      std::fprintf(stderr, "%s: --deadline-ms must be a number >= 0\n",
                   argv[0]);
      *usage_error = true;
      return true;
    }
    o->deadline_ms = n;
  } else if (!std::strcmp(arg, "--shard")) {
    const char* val = need_value();
    if (!val) return true;
    if (!parse_shard_spec(val, &o->shard, &o->shard_of)) {
      std::fprintf(stderr,
                   "%s: --shard wants I/N with 0 <= I < N, got '%s'\n",
                   argv[0], val);
      *usage_error = true;
    }
  } else if (!std::strcmp(arg, "--to")) {
    const char* stage = need_value();
    if (!stage) return true;
    if (stage_rank(stage) < 0) {
      std::fprintf(stderr,
                   "%s: unknown stage '%s' for --to (see `%s list-stages`)\n",
                   argv[0], stage, argv[0]);
      *usage_error = true;
      return true;
    }
    o->file_opts.stop_after = stage;
  } else if (!std::strcmp(arg, "--netlist-out")) {
    const char* val = need_value();
    if (val) o->netlist_out = val;
  } else if (!std::strcmp(arg, "--netlist-dir")) {
    const char* val = need_value();
    if (val) o->netlist_dir = val;
  } else if (!std::strcmp(arg, "--timings")) {
    o->timings = true;
  } else if (!std::strcmp(arg, "--trace")) {
    o->trace = true;
  } else if (!std::strcmp(arg, "--out")) {
    const char* val = need_value();
    if (val) o->out_path = val;
  } else if (!std::strcmp(arg, "--cache")) {
    const char* val = need_value();
    if (val) o->cache_dir = val;
  } else if (!std::strcmp(arg, "--resume")) {
    o->resume = true;
  } else if (!std::strcmp(arg, "--socket")) {
    const char* val = need_value();
    if (val) o->socket_path = val;
  } else if (!std::strcmp(arg, "--tcp")) {
    const char* val = need_value();
    if (!val) return true;
    try {
      parse_tcp_endpoint(val);  // malformed HOST:PORT is a usage error
    } catch (const Error& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      *usage_error = true;
      return true;
    }
    o->tcp = val;
  } else if (!std::strcmp(arg, "--connect")) {
    const char* val = need_value();
    if (!val) return true;
    try {
      parse_tcp_endpoint(val);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      *usage_error = true;
      return true;
    }
    o->connect = val;
  } else if (!std::strcmp(arg, "--retries")) {
    const char* val = need_value();
    if (!val) return true;
    char* end = nullptr;
    const long n = std::strtol(val, &end, 10);
    if (end == val || *end != '\0' || n < 0) {
      std::fprintf(stderr, "%s: --retries must be a number >= 0\n", argv[0]);
      *usage_error = true;
      return true;
    }
    o->retries = static_cast<int>(n);
  } else if (!std::strcmp(arg, "--max-bytes") ||
             !std::strcmp(arg, "--cache-max-bytes")) {
    const bool is_cap = !std::strcmp(arg, "--cache-max-bytes");
    const char* val = need_value();
    if (!val) return true;
    char* end = nullptr;
    const long long n = std::strtoll(val, &end, 10);
    if (end == val || *end != '\0' || n < 0) {
      std::fprintf(stderr, "%s: %s must be a number >= 0\n", argv[0], arg);
      *usage_error = true;
      return true;
    }
    (is_cap ? o->cache_max_bytes : o->max_bytes) = n;
  } else if (!std::strcmp(arg, "--name")) {
    const char* val = need_value();
    if (val) o->submit_name = val;
  } else if (!std::strcmp(arg, "--no-cache")) {
    o->no_cache = true;
  } else if (!std::strcmp(arg, "--delay-variants") ||
             !std::strcmp(arg, "--env-variants")) {
    const bool is_delay = !std::strcmp(arg, "--delay-variants");
    const char* val = need_value();
    if (!val) return true;
    char* end = nullptr;
    const long n = std::strtol(val, &end, 10);
    if (end == val || *end != '\0' || n < 0) {
      std::fprintf(stderr, "%s: %s must be a number >= 0\n", argv[0], arg);
      *usage_error = true;
      return true;
    }
    (is_delay ? o->sweep_delay_variants : o->sweep_env_variants) =
        static_cast<int>(n);
  } else if (!std::strcmp(arg, "--seed")) {
    const char* val = need_value();
    if (!val) return true;
    char* end = nullptr;
    const unsigned long long n = std::strtoull(val, &end, 10);
    if (end == val || *end != '\0') {
      std::fprintf(stderr, "%s: --seed must be a number >= 0\n", argv[0]);
      *usage_error = true;
      return true;
    }
    o->sweep_seed = n;
  } else if (!std::strcmp(arg, "--sim-ps")) {
    const char* val = need_value();
    if (!val) return true;
    char* end = nullptr;
    const long n = std::strtol(val, &end, 10);
    if (end == val || *end != '\0' || n < 1) {
      std::fprintf(stderr, "%s: --sim-ps must be a number >= 1\n", argv[0]);
      *usage_error = true;
      return true;
    }
    o->sweep_sim_ps = n;
  } else if (!std::strcmp(arg, "--no-faults")) {
    o->sweep_no_faults = true;
  } else {
    return false;
  }
  return true;
}

/// Parse a subcommand's flags against the subset it allows. Unknown flags
/// and malformed values go to stderr with the command's usage; exit 2.
/// `--help` prints usage to stdout and exits 0.
CliOptions parse_or_exit(int argc, char** argv, const std::string& cmd,
                         const std::vector<std::string>& allowed,
                         bool accept_positional) {
  CliOptions o;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      print_command_usage(stdout, argv[0], cmd);
      std::exit(0);
    }
    if (arg[0] != '-') {
      if (accept_positional) {
        o.positional.push_back(arg);
        continue;
      }
      std::fprintf(stderr, "%s %s: unexpected argument '%s'\n", argv[0],
                   cmd.c_str(), arg);
      print_command_usage(stderr, argv[0], cmd);
      std::exit(2);
    }
    const bool known = std::find(allowed.begin(), allowed.end(),
                                 std::string(arg)) != allowed.end();
    bool usage_error = false;
    if (!known || !parse_common_flag(argc, argv, &i, &o, &usage_error)) {
      std::fprintf(stderr, "%s %s: unknown option '%s'\n", argv[0],
                   cmd.c_str(), arg);
      print_command_usage(stderr, argv[0], cmd);
      std::exit(2);
    }
    if (usage_error) std::exit(2);
  }
  return o;
}

/// Assemble the corpus exactly like `batch` does — built-ins (when
/// requested or when no files are given) followed by the --spec files in
/// command-line order. Shard ids index into THIS order.
std::vector<BatchSpec> build_corpus(const CliOptions& o) {
  std::vector<BatchSpec> corpus;
  if (o.use_builtin || o.spec_files.empty()) {
    corpus = builtin_corpus(o.pipeline_stages);
    // Built-ins take the user's reachability cap and stop point; the
    // thread budget is context-level (FlowContext), so it needs no
    // per-item copying.
    for (auto& item : corpus) {
      item.opts.sg.max_states = o.file_opts.sg.max_states;
      item.opts.stop_after = o.file_opts.stop_after;
    }
  }
  for (auto& item : load_corpus_files(o.spec_files, o.file_opts))
    corpus.push_back(std::move(item));
  return corpus;
}

/// Write `text` to `out_path` (or stdout when empty). Returns false after
/// reporting to stderr.
bool write_output(const char* argv0, const std::string& out_path,
                  const std::string& text) {
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv0,
                 out_path.c_str());
    return false;
  }
  const bool write_ok = std::fputs(text.c_str(), f) >= 0;
  const bool close_ok = std::fclose(f) == 0;
  if (!write_ok || !close_ok) {
    std::fprintf(stderr, "%s: failed to write '%s'\n", argv0,
                 out_path.c_str());
    return false;
  }
  return true;
}

/// Does the stop point run the map stage — i.e. do netlist dumps exist?
bool stop_reaches_map(const std::string& stop_after) {
  return !stop_after.empty() && stage_rank(stop_after) >= stage_rank("map");
}

/// Deterministic per-item netlist file name: basename of the item name,
/// the built-ins' ':' mode suffix mapped to '_', a trailing ".g"
/// dropped, ".nl" appended. "specs/fifo.g" -> "fifo.nl";
/// "fifo_csc:RT" -> "fifo_csc_RT.nl".
std::string netlist_file_name(const std::string& item_name) {
  std::string base = item_name;
  const std::size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);
  if (base.size() > 2 && base.compare(base.size() - 2, 2, ".g") == 0)
    base.resize(base.size() - 2);
  for (char& c : base)
    if (c == ':') c = '_';
  return base + ".nl";
}

/// Context for one command: deadline token (if any) + thread budget.
struct CliContext {
  CancelToken token;
  FlowContext ctx;
  explicit CliContext(const CliOptions& o) {
    ctx.budget = o.budget;
    if (o.deadline_ms >= 0) {
      token.set_timeout(std::chrono::milliseconds(o.deadline_ms));
      ctx.cancel = &token;
    }
  }
};

const char* status_text(StageStatus s) {
  switch (s) {
    case StageStatus::kOk: return "ok";
    case StageStatus::kSkipped: return "skipped";
    case StageStatus::kFailed: return "FAILED";
  }
  return "?";
}

void print_trace(const PipelineResult& run) {
  for (const StageTrace& t : run.trace) {
    std::string metrics;
    for (const StageMetric& m : t.metrics) {
      metrics += metrics.empty() ? " [" : ", ";
      metrics += m.key + "=" + std::to_string(m.value);
    }
    if (!metrics.empty()) metrics += "]";
    std::fprintf(stderr, "stage %-20s %-7s %s%s (%.2f ms)\n",
                 t.stage.c_str(), status_text(t.status),
                 t.status == StageStatus::kFailed ? t.error_message.c_str()
                                                  : t.summary.c_str(),
                 metrics.c_str(), t.wall_ms);
  }
}

// --- subcommands ------------------------------------------------------------

int cmd_run(int argc, char** argv) {
  const CliOptions o = parse_or_exit(
      argc, argv, "run",
      {"--spec", "--mode", "--max-states", "--to", "--netlist-out",
       "--sg-threads", "--csc-threads", "--deadline-ms", "--cache",
       "--trace", "--timings", "--out"},
      /*accept_positional=*/false);
  if (o.spec_files.size() != 1) {
    std::fprintf(stderr, "%s run: exactly one --spec FILE.g is required\n",
                 argv[0]);
    print_command_usage(stderr, argv[0], "run");
    return 2;
  }
  if (!o.netlist_out.empty() && !stop_reaches_map(o.file_opts.stop_after)) {
    std::fprintf(stderr,
                 "%s run: --netlist-out requires --to map or later\n",
                 argv[0]);
    return 2;
  }
  CliContext cli(o);

  // Load through the same path batch uses so file problems surface as the
  // same structured diagnostics.
  std::vector<BatchSpec> corpus = load_corpus_files(o.spec_files, o.file_opts);
  BatchResult result;
  result.items.resize(1);
  BatchItemResult& item = result.items[0];
  item.name = corpus[0].name;
  if (corpus[0].load_error) {
    item.diagnostic = *corpus[0].load_error;
  } else {
    // Cache consult/populate (when --cache): a hit IS the canonical
    // result — same bytes the pipeline below would produce.
    std::optional<ResultCache> cache;
    std::string key;
    bool served_from_cache = false;
    try {
      if (!o.cache_dir.empty()) {
        cache.emplace(o.cache_dir);
        key = cache_key(corpus[0]);
        if (std::optional<BatchItemResult> hit = cache->lookup(key)) {
          std::fprintf(stderr, "cache: hit %s\n", key.c_str());
          item = std::move(*hit);
          served_from_cache = true;
        }
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "%s run: %s\n", argv[0], e.what());
      return 1;
    }
    if (!served_from_cache) {
      const auto start = std::chrono::steady_clock::now();
      const PipelineResult run = FlowPipeline::standard(o.file_opts.mode)
                                     .run(corpus[0].spec, corpus[0].opts,
                                          cli.ctx);
      if (o.trace) print_trace(run);
      item = to_batch_item(corpus[0].name, run);
      item.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
      if (cache) {
        std::fprintf(stderr, "cache: miss %s\n", key.c_str());
        // Cancellation is schedule noise, never a memoizable answer.
        if (item.ok || item.diagnostic.kind != "cancelled") {
          try {
            cache->store(key, item);
          } catch (const Error& e) {
            std::fprintf(stderr, "%s run: %s\n", argv[0], e.what());
            return 1;
          }
        }
      }
    }
  }
  (item.ok ? result.ok_count : result.failed_count) += 1;
  result.wall_ms = item.wall_ms;
  if (!write_output(argv[0], o.out_path, to_json(result, o.timings)))
    return 1;
  if (!o.netlist_out.empty() && item.ok &&
      !write_output(argv[0], o.netlist_out, item.netlist_text))
    return 1;
  return result.failed_count == 0 ? 0 : 1;
}

int cmd_batch(int argc, char** argv) {
  const CliOptions o = parse_or_exit(
      argc, argv, "batch",
      {"--corpus", "--spec", "--pipeline-stages", "--mode", "--max-states",
       "--to", "--netlist-dir", "--threads", "--sg-threads", "--csc-threads",
       "--deadline-ms", "--cache", "--timings", "--out"},
      /*accept_positional=*/false);
  if (!o.netlist_dir.empty() && !stop_reaches_map(o.file_opts.stop_after)) {
    std::fprintf(stderr,
                 "%s batch: --netlist-dir requires --to map or later\n",
                 argv[0]);
    return 2;
  }
  CliContext cli(o);
  BatchResult result;
  if (o.cache_dir.empty()) {
    result = run_batch(build_corpus(o), cli.ctx);
  } else {
    try {
      const ResultCache cache(o.cache_dir);
      CacheStats cs;
      result = run_batch_cached(build_corpus(o), cli.ctx, cache, &cs);
      std::fprintf(stderr, "cache: %lld hits, %lld misses, %lld stored (%s)\n",
                   cs.hits, cs.misses, cs.stores, cache.dir().c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "%s batch: %s\n", argv[0], e.what());
      return 1;
    }
  }
  if (!write_output(argv[0], o.out_path, to_json(result, o.timings)))
    return 1;
  if (!o.netlist_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(o.netlist_dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s batch: cannot create '%s': %s\n", argv[0],
                   o.netlist_dir.c_str(), ec.message().c_str());
      return 1;
    }
    for (const BatchItemResult& item : result.items) {
      if (item.netlist_text.empty()) continue;  // failed item: no netlist
      const std::string path =
          o.netlist_dir + "/" + netlist_file_name(item.name);
      if (!write_output(argv[0], path, item.netlist_text)) return 1;
    }
  }
  return result.failed_count == 0 ? 0 : 1;
}

/// Test-only crash injection for the `drive` retry machinery:
/// RTFLOW_TEST_CRASH_AFTER="K:MARKER" makes a resumed shard _Exit(70)
/// right after its K-th newly computed item is checkpointed — but only
/// if the per-shard marker file MARKER.shard<id> does not exist yet (it
/// is created on the way down), so the retried process runs to
/// completion. Returns an empty hook when the variable is unset.
std::function<void(std::size_t)> crash_injection_hook(std::size_t shard) {
  const char* env = std::getenv("RTFLOW_TEST_CRASH_AFTER");
  if (!env) return {};
  const std::string val = env;
  const std::size_t colon = val.find(':');
  if (colon == std::string::npos || colon == 0) return {};
  const std::size_t after =
      static_cast<std::size_t>(std::atoll(val.c_str()));
  const std::string marker =
      val.substr(colon + 1) + ".shard" + std::to_string(shard);
  return [after, marker](std::size_t computed) {
    if (computed < after) return;
    std::error_code ec;
    if (std::filesystem::exists(marker, ec)) return;
    if (std::FILE* f = std::fopen(marker.c_str(), "w")) std::fclose(f);
    std::_Exit(70);  // "crash": no unwinding, no final output write
  };
}

int cmd_shard(int argc, char** argv) {
  const CliOptions o = parse_or_exit(
      argc, argv, "shard",
      {"--shard", "--corpus", "--spec", "--pipeline-stages", "--mode",
       "--max-states", "--to", "--threads", "--sg-threads", "--csc-threads",
       "--deadline-ms", "--resume", "--out"},
      /*accept_positional=*/false);
  if (o.shard_of == 0) {
    std::fprintf(stderr, "%s shard: --shard I/N is required\n", argv[0]);
    print_command_usage(stderr, argv[0], "shard");
    return 2;
  }
  if (o.resume && o.out_path.empty()) {
    std::fprintf(stderr, "%s shard: --resume requires --out FILE\n", argv[0]);
    return 2;
  }
  CliContext cli(o);
  ShardRun run;
  try {
    if (o.resume) {
      ShardRun prior;
      const ShardRun* partial = nullptr;
      if (const std::optional<std::string> text =
              read_file_if_exists(o.out_path)) {
        prior = parse_shard_json(*text);
        partial = &prior;
      }
      run = run_shard_resume(build_corpus(o), o.shard, o.shard_of, partial,
                             cli.ctx, o.out_path,
                             crash_injection_hook(o.shard));
    } else {
      run = run_shard(build_corpus(o), o.shard, o.shard_of, cli.ctx);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s shard: %s\n", argv[0], e.what());
    return 1;
  }
  int failed = 0;
  for (const ShardItem& s : run.items) failed += s.item.ok ? 0 : 1;
  if (!write_output(argv[0], o.out_path, to_shard_json(run))) return 1;
  return failed == 0 ? 0 : 1;
}

/// Resolve `sweep --spec` with user-friendly fallbacks: an existing
/// path, a generated scaling name (pipelineN/ringN), then NAME.g and
/// specs/NAME.g relative to the working directory — so `sweep --spec
/// mmu` works from the repo root. First match wins; the NAME the user
/// typed is what the report carries.
bool resolve_sweep_spec(const std::string& arg, Stg* spec,
                        std::string* error) {
  try {
    if (std::filesystem::exists(arg)) {
      *spec = parse_stg_file(arg);
      return true;
    }
    if (std::optional<Stg> generated = generated_spec(arg)) {
      *spec = std::move(*generated);
      return true;
    }
    for (const std::string& candidate : {arg + ".g", "specs/" + arg + ".g"}) {
      if (std::filesystem::exists(candidate)) {
        *spec = parse_stg_file(candidate);
        return true;
      }
    }
  } catch (const Error& e) {
    *error = e.what();
    return false;
  }
  *error = "no file, generated family, NAME.g or specs/NAME.g matches '" +
           arg + "'";
  return false;
}

int cmd_sweep(int argc, char** argv) {
  const CliOptions o = parse_or_exit(
      argc, argv, "sweep",
      {"--spec", "--mode", "--max-states", "--delay-variants",
       "--env-variants", "--no-faults", "--seed", "--sim-ps", "--shard",
       "--threads", "--sg-threads", "--csc-threads", "--deadline-ms",
       "--out"},
      /*accept_positional=*/false);
  if (o.spec_files.size() != 1) {
    std::fprintf(stderr,
                 "%s sweep: exactly one --spec NAME|FILE.g is required\n",
                 argv[0]);
    print_command_usage(stderr, argv[0], "sweep");
    return 2;
  }
  const std::string& name = o.spec_files[0];
  Stg spec;
  std::string resolve_error;
  if (!resolve_sweep_spec(name, &spec, &resolve_error)) {
    std::fprintf(stderr, "%s sweep: %s\n", argv[0], resolve_error.c_str());
    return 1;
  }

  SweepOptions so;
  so.flow = o.file_opts;
  so.faults = !o.sweep_no_faults;
  so.delay_variants = o.sweep_delay_variants;
  so.env_variants = o.sweep_env_variants;
  so.seed = o.sweep_seed;
  if (o.sweep_sim_ps > 0)
    so.fault.sim_time_ps = static_cast<double>(o.sweep_sim_ps);

  CliContext cli(o);
  std::string text;
  try {
    if (o.shard_of > 0)
      text = to_sweep_shard_json(
          run_sweep_shard(name, spec, o.shard, o.shard_of, so, cli.ctx));
    else
      text = to_sweep_json(run_sweep(name, spec, so, cli.ctx));
  } catch (const Error& e) {
    std::fprintf(stderr, "%s sweep: %s\n", argv[0], e.what());
    return 1;
  }
  return write_output(argv[0], o.out_path, text) ? 0 : 1;
}

/// The process driver: the PR-5 "driver that launches the worker
/// processes itself" leftover. Workers are this same binary re-executed
/// as `shard --resume`, so a crashed worker's checkpoint file makes its
/// one retry cheap: only the items the crash lost are recomputed.
int cmd_drive(int argc, char** argv) {
  int shards = 0;
  std::string work_dir, out_path;
  std::vector<std::string> passthrough;  // forwarded verbatim to workers
  // Every forwardable flag takes a value, which keeps this loop honest.
  static const char* const kForwarded[] = {
      "--corpus", "--spec",       "--pipeline-stages", "--mode",
      "--max-states", "--to",     "--threads",         "--sg-threads",
      "--csc-threads", "--deadline-ms"};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_command_usage(stdout, argv[0], "drive");
      return 0;
    }
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--shards") {
      const char* val = need_value();
      if (!val) return 2;
      shards = std::atoi(val);
      if (shards < 1) {
        std::fprintf(stderr, "%s drive: --shards must be >= 1\n", argv[0]);
        return 2;
      }
    } else if (arg == "--work-dir") {
      const char* val = need_value();
      if (!val) return 2;
      work_dir = val;
    } else if (arg == "--out") {
      const char* val = need_value();
      if (!val) return 2;
      out_path = val;
    } else if (std::find_if(std::begin(kForwarded), std::end(kForwarded),
                            [&](const char* f) { return arg == f; }) !=
               std::end(kForwarded)) {
      const char* val = need_value();
      if (!val) return 2;
      passthrough.push_back(arg);
      passthrough.push_back(val);
    } else {
      std::fprintf(stderr, "%s drive: unknown option '%s'\n", argv[0],
                   arg.c_str());
      print_command_usage(stderr, argv[0], "drive");
      return 2;
    }
  }
  if (shards < 1 || work_dir.empty()) {
    std::fprintf(stderr, "%s drive: --shards N and --work-dir DIR are required\n",
                 argv[0]);
    print_command_usage(stderr, argv[0], "drive");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "%s drive: cannot create '%s': %s\n", argv[0],
                 work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  struct Worker {
    pid_t pid = -1;
    int attempts = 0;
    std::string out;
  };
  std::vector<Worker> workers(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i)
    workers[static_cast<std::size_t>(i)].out =
        work_dir + "/shard_" + std::to_string(i) + ".json";

  const auto launch = [&](int i) -> pid_t {
    Worker& w = workers[static_cast<std::size_t>(i)];
    std::vector<std::string> args = {argv[0], "shard", "--shard",
                                     std::to_string(i) + "/" +
                                         std::to_string(shards)};
    args.insert(args.end(), passthrough.begin(), passthrough.end());
    args.push_back("--resume");
    args.push_back("--out");
    args.push_back(w.out);
    std::vector<char*> cargs;
    cargs.reserve(args.size() + 1);
    for (std::string& a : args) cargs.push_back(a.data());
    cargs.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      // /proc/self/exe: re-execute THIS binary whatever it was named or
      // however relative the invoking path was.
      ::execv("/proc/self/exe", cargs.data());
      std::_Exit(127);
    }
    ++w.attempts;
    return pid;
  };

  for (int i = 0; i < shards; ++i) {
    workers[static_cast<std::size_t>(i)].pid = launch(i);
    if (workers[static_cast<std::size_t>(i)].pid < 0) {
      std::fprintf(stderr, "%s drive: fork(): %s\n", argv[0],
                   std::strerror(errno));
      return 1;
    }
  }

  // Exit-code contract for workers: 0 clean, 1 an ITEM failed (a result,
  // not a crash — the shard file is complete either way). Anything else —
  // a signal, _Exit(70), exec failure — is a crash: retry exactly once,
  // resuming the checkpoint the dead worker left behind.
  bool gave_up = false;
  int live = shards;
  while (live > 0) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, 0);
    if (pid < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "%s drive: waitpid(): %s\n", argv[0],
                   std::strerror(errno));
      return 1;
    }
    int idx = -1;
    for (int i = 0; i < shards; ++i)
      if (workers[static_cast<std::size_t>(i)].pid == pid) idx = i;
    if (idx < 0) continue;  // not one of ours
    Worker& w = workers[static_cast<std::size_t>(idx)];
    const bool exited = WIFEXITED(status);
    const int code = exited ? WEXITSTATUS(status) : -1;
    if (exited && (code == 0 || code == 1)) {
      --live;
      continue;
    }
    std::string how = exited
                          ? strprintf("exited with code %d", code)
                          : strprintf("killed by signal %d", WTERMSIG(status));
    if (w.attempts >= 2) {
      std::fprintf(stderr, "%s drive: shard %d/%d crashed again (%s); giving up\n",
                   argv[0], idx, shards, how.c_str());
      gave_up = true;
      --live;
      continue;
    }
    std::fprintf(stderr,
                 "%s drive: shard %d/%d crashed (%s); retrying once, "
                 "resuming '%s'\n",
                 argv[0], idx, shards, how.c_str(), w.out.c_str());
    w.pid = launch(idx);
    if (w.pid < 0) {
      std::fprintf(stderr, "%s drive: fork(): %s\n", argv[0],
                   std::strerror(errno));
      return 1;
    }
  }
  if (gave_up) return 1;

  std::vector<ShardRun> runs;
  BatchResult result;
  try {
    for (const Worker& w : workers) runs.push_back(parse_shard_json(
        read_file(w.out)));
    result = merge_shards(runs);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s drive: %s\n", argv[0], e.what());
    return 1;
  }
  if (!write_output(argv[0], out_path, to_json(result))) return 1;
  return result.failed_count == 0 ? 0 : 1;
}

// --- serve / submit / cache -------------------------------------------------

volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int) { g_stop_signal = 1; }

int cmd_serve(int argc, char** argv) {
  const CliOptions o = parse_or_exit(
      argc, argv, "serve",
      {"--socket", "--tcp", "--cache", "--cache-max-bytes", "--threads",
       "--sg-threads", "--csc-threads"},
      /*accept_positional=*/false);
  if (o.socket_path.empty() && o.tcp.empty()) {
    std::fprintf(stderr, "%s serve: --socket PATH or --tcp HOST:PORT is "
                 "required\n", argv[0]);
    print_command_usage(stderr, argv[0], "serve");
    return 2;
  }
  if (o.cache_max_bytes >= 0 && o.cache_dir.empty()) {
    std::fprintf(stderr, "%s serve: --cache-max-bytes requires --cache DIR\n",
                 argv[0]);
    return 2;
  }
  ServeOptions so;
  so.socket_path = o.socket_path;
  so.tcp = o.tcp;
  so.budget = o.budget;
  so.cache_dir = o.cache_dir;
  if (o.cache_max_bytes >= 0)
    so.cache_max_bytes = static_cast<std::uintmax_t>(o.cache_max_bytes);
  FlowService service(std::move(so));
  try {
    service.start();
  } catch (const Error& e) {
    // Bind failures — socket path held by a live daemon, TCP port in
    // use or privileged — are clean recoverable errors by contract.
    std::fprintf(stderr, "%s serve: %s\n", argv[0], e.what());
    return 1;
  }
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  if (!o.socket_path.empty())
    std::fprintf(stderr, "serving on %s%s%s\n", o.socket_path.c_str(),
                 o.cache_dir.empty() ? " (no cache)" : ", cache at ",
                 o.cache_dir.c_str());
  if (!o.tcp.empty())
    std::fprintf(stderr, "serving on tcp:%s (port %d)%s%s\n", o.tcp.c_str(),
                 service.tcp_port(),
                 o.cache_dir.empty() ? " (no cache)" : ", cache at ",
                 o.cache_dir.c_str());
  service.wait([] { return g_stop_signal == 0; });
  const ServeStats st = service.stats();
  std::fprintf(stderr,
               "served %lld requests (%lld hits, %lld misses, "
               "%lld cancelled, %lld protocol errors, %lld evicted)\n",
               st.requests, st.cache_hits, st.cache_misses, st.cancelled,
               st.protocol_errors, st.evicted);
  return 0;
}

/// Resolve the daemon endpoint from --socket / --connect (exactly one).
/// Returns nullopt after printing the usage error.
std::optional<Endpoint> client_endpoint(const char* argv0,
                                        const std::string& cmd,
                                        const CliOptions& o) {
  if (o.socket_path.empty() == o.connect.empty()) {
    std::fprintf(stderr,
                 "%s %s: exactly one of --socket PATH or --connect "
                 "HOST:PORT is required\n",
                 argv0, cmd.c_str());
    print_command_usage(stderr, argv0, cmd);
    return std::nullopt;
  }
  if (!o.connect.empty()) return parse_tcp_endpoint(o.connect);
  return Endpoint::unix_path(o.socket_path);
}

/// Bounded retry driver for the submit client: run `attempt` until it
/// reports success or a non-transport failure, retrying transport
/// failures (connection refused, mid-stream disconnect) up to `retries`
/// times with exponential backoff (100/200/400... ms), one clear stderr
/// line per failed attempt. A served protocol error is an ANSWER — it is
/// never retried.
template <typename Result>
Result submit_with_retries(
    const char* argv0, int retries,
    const std::function<Result()>& attempt) {
  Result res;
  for (int tries = 0;; ++tries) {
    res = attempt();
    if (res.protocol_ok || !res.transport_failure || tries >= retries)
      return res;
    const long backoff_ms = 100L << std::min(tries, 20);
    std::fprintf(stderr,
                 "%s submit: attempt %d/%d failed: %s; retrying in %ldms\n",
                 argv0, tries + 1, retries + 1, res.error.c_str(),
                 backoff_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
  }
}

/// submit with a multi-spec corpus: stream the whole set through the
/// `batch` verb on one connection and reassemble the canonical batch
/// envelope — byte-identical to `rtflow_cli batch` over the same corpus.
/// Items that failed to LOAD locally never reach the wire: their records
/// render here, exactly as batch would (load diagnostics are a local
/// fact; the server never saw the file).
int submit_batch(const char* argv0, const CliOptions& o,
                 const Endpoint& endpoint) {
  const std::vector<BatchSpec> corpus = build_corpus(o);
  std::vector<SubmitRequest> wire_items;
  std::vector<std::size_t> wire_to_corpus;
  BatchResult result;
  result.items.resize(corpus.size());
  FlowContext local_ctx;  // only renders load-error diagnostics
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const BatchSpec& item = corpus[i];
    if (item.load_error) {
      result.items[i] = run_batch_item(item, local_ctx);
      continue;
    }
    SubmitRequest req;
    req.name = item.name;
    req.spec_text = write_stg(item.spec);
    req.mode = item.opts.mode;
    req.max_states = item.opts.sg.max_states;
    req.stop_after = item.opts.stop_after;
    wire_items.push_back(std::move(req));
    wire_to_corpus.push_back(i);
  }

  BatchSubmitOptions bo;
  bo.use_cache = !o.no_cache;
  bo.deadline_ms = o.deadline_ms;
  BatchSubmitResult res;
  if (!wire_items.empty()) {
    res = submit_with_retries<BatchSubmitResult>(
        argv0, o.retries, [&]() -> BatchSubmitResult {
          return serve_submit_batch(
              endpoint, wire_items, bo, [&](const std::string& line) {
                if (o.trace && starts_with(line, "item "))
                  std::fprintf(stderr, "%s\n", line.c_str());
              });
        });
    if (!res.protocol_ok) {
      std::fprintf(stderr, "%s submit: %s\n", argv0, res.error.c_str());
      return 1;
    }
    if (res.records.size() != wire_items.size()) {
      std::fprintf(stderr,
                   "%s submit: server streamed %zu records for %zu items\n",
                   argv0, res.records.size(), wire_items.size());
      return 1;
    }
    for (std::size_t w = 0; w < res.records.size(); ++w) {
      try {
        result.items[wire_to_corpus[w]] =
            parse_item_record_json(res.records[w]);
      } catch (const Error& e) {
        std::fprintf(stderr, "%s submit: malformed record from server: %s\n",
                     argv0, e.what());
        return 1;
      }
    }
  }
  for (const BatchItemResult& item : result.items)
    (item.ok ? result.ok_count : result.failed_count) += 1;
  if (!write_output(argv0, o.out_path, to_json(result))) return 1;
  return result.failed_count == 0 ? 0 : 1;
}

int cmd_submit(int argc, char** argv) {
  const CliOptions o = parse_or_exit(
      argc, argv, "submit",
      {"--socket", "--connect", "--retries", "--spec", "--corpus",
       "--pipeline-stages", "--name", "--mode", "--max-states", "--to",
       "--deadline-ms", "--no-cache", "--trace", "--out"},
      /*accept_positional=*/false);
  const std::optional<Endpoint> endpoint =
      client_endpoint(argv[0], "submit", o);
  if (!endpoint) return 2;
  // Multiple --spec files (or --corpus builtin) go through the `batch`
  // verb: one connection, one record streamed per item in corpus order.
  if (o.use_builtin || o.spec_files.size() > 1)
    return submit_batch(argv[0], o, *endpoint);
  if (o.spec_files.size() != 1) {
    std::fprintf(stderr,
                 "%s submit: --spec FILE.g (or --corpus builtin) is "
                 "required\n",
                 argv[0]);
    print_command_usage(stderr, argv[0], "submit");
    return 2;
  }
  SubmitRequest req;
  req.name = o.submit_name.empty() ? o.spec_files[0] : o.submit_name;
  {
    std::ifstream in(o.spec_files[0], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s submit: cannot read '%s'\n", argv[0],
                   o.spec_files[0].c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    req.spec_text = text.str();
  }
  req.mode = o.file_opts.mode;
  req.max_states = o.file_opts.sg.max_states;
  req.stop_after = o.file_opts.stop_after;
  req.deadline_ms = o.deadline_ms;
  req.use_cache = !o.no_cache;

  const SubmitResult res = submit_with_retries<SubmitResult>(
      argv[0], o.retries, [&]() -> SubmitResult {
        return serve_submit(*endpoint, req, [&](const std::string& line) {
          if (o.trace && (starts_with(line, "stage ") ||
                          starts_with(line, "cache ")))
            std::fprintf(stderr, "%s\n", line.c_str());
        });
      });
  if (!res.protocol_ok) {
    std::fprintf(stderr, "%s submit: %s\n", argv[0], res.error.c_str());
    return 1;
  }
  // Re-wrap the streamed record into the one-item batch envelope: the
  // output is byte-identical to `run` with the same spec and flags.
  BatchResult result;
  result.items.resize(1);
  try {
    result.items[0] = parse_item_record_json(res.record_json);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s submit: malformed record from server: %s\n",
                 argv[0], e.what());
    return 1;
  }
  (result.items[0].ok ? result.ok_count : result.failed_count) += 1;
  if (!write_output(argv[0], o.out_path, to_json(result))) return 1;
  return result.failed_count == 0 ? 0 : 1;
}

int cmd_metrics(int argc, char** argv) {
  const CliOptions o = parse_or_exit(argc, argv, "metrics",
                                     {"--socket", "--connect", "--out"},
                                     /*accept_positional=*/false);
  const std::optional<Endpoint> endpoint =
      client_endpoint(argv[0], "metrics", o);
  if (!endpoint) return 2;
  std::string json;
  try {
    json = serve_metrics(*endpoint);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s metrics: %s\n", argv[0], e.what());
    return 1;
  }
  if (!write_output(argv[0], o.out_path, json + "\n")) return 1;
  return 0;
}

int cmd_cache(int argc, char** argv) {
  const CliOptions o = parse_or_exit(
      argc, argv, "cache",
      {"--cache", "--max-bytes", "--spec", "--mode", "--max-states", "--to"},
      /*accept_positional=*/true);
  if (o.positional.size() != 1) {
    std::fprintf(stderr,
                 "%s cache: one of stats|clear|prune|key is required\n",
                 argv[0]);
    print_command_usage(stderr, argv[0], "cache");
    return 2;
  }
  const std::string& verb = o.positional[0];
  try {
    if (verb == "stats" || verb == "clear" || verb == "prune") {
      if (o.cache_dir.empty()) {
        std::fprintf(stderr, "%s cache %s: --cache DIR is required\n",
                     argv[0], verb.c_str());
        return 2;
      }
      const ResultCache cache(o.cache_dir);
      if (verb == "stats") {
        const ResultCache::DirStats st = cache.scan();
        std::printf("%zu entries, %ju bytes\n", st.entries,
                    static_cast<std::uintmax_t>(st.bytes));
      } else if (verb == "prune") {
        if (o.max_bytes < 0) {
          std::fprintf(stderr, "%s cache prune: --max-bytes N is required\n",
                       argv[0]);
          return 2;
        }
        const ResultCache::PruneStats st =
            cache.prune(static_cast<std::uintmax_t>(o.max_bytes));
        std::printf("%zu of %zu entries evicted, %ju -> %ju bytes\n",
                    st.evicted, st.scanned,
                    static_cast<std::uintmax_t>(st.bytes_before),
                    static_cast<std::uintmax_t>(st.bytes_after));
      } else {
        std::printf("%zu entries removed\n", cache.clear());
      }
      return 0;
    }
    if (verb == "key") {
      if (o.spec_files.size() != 1) {
        std::fprintf(stderr,
                     "%s cache key: exactly one --spec FILE.g is required\n",
                     argv[0]);
        return 2;
      }
      const std::vector<BatchSpec> corpus =
          load_corpus_files(o.spec_files, o.file_opts);
      if (corpus[0].load_error) {
        std::fprintf(stderr, "%s cache key: %s\n", argv[0],
                     corpus[0].load_error->message.c_str());
        return 1;
      }
      std::printf("%s\n", cache_key(corpus[0]).c_str());
      return 0;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s cache: %s\n", argv[0], e.what());
    return 1;
  }
  std::fprintf(stderr, "%s cache: unknown subcommand '%s'\n", argv[0],
               verb.c_str());
  print_command_usage(stderr, argv[0], "cache");
  return 2;
}

int cmd_merge(int argc, char** argv) {
  const CliOptions o = parse_or_exit(argc, argv, "merge", {"--out"},
                                     /*accept_positional=*/true);
  if (o.positional.empty()) {
    std::fprintf(stderr, "%s merge: no shard files given\n", argv[0]);
    print_command_usage(stderr, argv[0], "merge");
    return 2;
  }
  std::vector<std::string> texts;
  for (const std::string& path : o.positional) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s merge: cannot read '%s'\n", argv[0],
                   path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }

  // Kind dispatch off the first file: a complete merge set is either all
  // batch shards or all sweep shards (a mix fails in the parsers below
  // with the kind mismatch named).
  if (is_sweep_shard_json(texts[0])) {
    std::vector<SweepShard> shards;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      try {
        shards.push_back(parse_sweep_shard_json(texts[i]));
      } catch (const Error& e) {
        std::fprintf(stderr, "%s merge: %s: %s\n", argv[0],
                     o.positional[i].c_str(), e.what());
        return 1;
      }
    }
    SweepReport report;
    try {
      report = merge_sweep_shards(shards);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s merge: %s\n", argv[0], e.what());
      return 1;
    }
    // Sweep findings (undetected faults, broken windows) are results,
    // not failures: success is exit 0, matching `sweep` itself.
    return write_output(argv[0], o.out_path, to_sweep_json(report)) ? 0 : 1;
  }

  std::vector<ShardRun> shards;
  for (std::size_t i = 0; i < texts.size(); ++i) {
    try {
      shards.push_back(parse_shard_json(texts[i]));
    } catch (const Error& e) {
      std::fprintf(stderr, "%s merge: %s: %s\n", argv[0],
                   o.positional[i].c_str(), e.what());
      return 1;
    }
  }
  BatchResult result;
  try {
    result = merge_shards(shards);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s merge: %s\n", argv[0], e.what());
    return 1;
  }
  if (!write_output(argv[0], o.out_path, to_json(result))) return 1;
  return result.failed_count == 0 ? 0 : 1;
}

int cmd_list(int argc, char** argv) {
  const CliOptions o = parse_or_exit(
      argc, argv, "list",
      {"--corpus", "--spec", "--pipeline-stages", "--mode", "--max-states"},
      /*accept_positional=*/false);
  for (const auto& item : build_corpus(o)) std::puts(item.name.c_str());
  return 0;
}

/// Print the stage registry — one line per canonical name, in rank
/// order: name, the modes that run it, description. The machine-readable
/// source of `--to` targets.
int cmd_list_stages(int argc, char** argv) {
  parse_or_exit(argc, argv, "list-stages", {}, /*accept_positional=*/false);
  for (const StageInfo& s : stage_registry()) {
    const char* modes = s.in_rt && s.in_si ? "rt,si" : (s.in_rt ? "rt" : "si");
    std::printf("%-20s %-6s %s\n", s.name, modes, s.title);
  }
  return 0;
}

/// Write the builder specs as `.g` files — the reproducible half of the
/// checked-in specs/ corpus (tools/gen_golden.sh re-runs this).
int cmd_export_specs(int argc, char** argv) {
  const CliOptions o = parse_or_exit(argc, argv, "export-specs", {},
                                     /*accept_positional=*/true);
  if (o.positional.size() != 1) {
    std::fprintf(stderr, "%s export-specs: exactly one DIR is required\n",
                 argv[0]);
    print_command_usage(stderr, argv[0], "export-specs");
    return 2;
  }
  const std::string& dir = o.positional[0];
  struct Item {
    const char* file;
    Stg spec;
  };
  const Item items[] = {
      {"fifo.g", fifo_stg()},         {"fifo_csc.g", fifo_csc_stg()},
      {"fifo_si.g", fifo_si_stg()},   {"celement.g", celement_stg()},
      {"vme.g", vme_stg()},           {"toggle.g", toggle_stg()},
      {"call.g", call_stg()},         {"pipeline2.g", pipeline_stg(2)},
      {"pipeline3.g", pipeline_stg(3)}, {"pipeline4.g", pipeline_stg(4)},
  };
  for (const Item& item : items) {
    const std::string path = dir + "/" + item.file;
    if (!write_output(argv[0], path, write_stg(item.spec))) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, kGlobalUsage, argv[0], argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    std::printf(kGlobalUsage, argv[0], argv[0]);
    return 0;
  }
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "batch") return cmd_batch(argc, argv);
  if (cmd == "shard") return cmd_shard(argc, argv);
  if (cmd == "sweep") return cmd_sweep(argc, argv);
  if (cmd == "merge") return cmd_merge(argc, argv);
  if (cmd == "drive") return cmd_drive(argc, argv);
  if (cmd == "serve") return cmd_serve(argc, argv);
  if (cmd == "submit") return cmd_submit(argc, argv);
  if (cmd == "metrics") return cmd_metrics(argc, argv);
  if (cmd == "cache") return cmd_cache(argc, argv);
  if (cmd == "list") return cmd_list(argc, argv);
  if (cmd == "list-stages") return cmd_list_stages(argc, argv);
  if (cmd == "export-specs") return cmd_export_specs(argc, argv);
  std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0], cmd.c_str());
  std::fprintf(stderr, kGlobalUsage, argv[0], argv[0]);
  return 2;
}
