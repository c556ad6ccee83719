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
// Every flag is declared once, in kFlags (spelling, value, help, parser),
// and every command once, in kCommands (usage, flag list, handler): both
// levels of --help, the unknown-flag check, dispatch and drive's
// forwarding all read those two tables.
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
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "flow/flow.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"

using namespace rtcad;

namespace {

struct Command;

/// One parsed command line. Past the first four fields, each field is
/// written only by the setter of its flag's row in kFlags.
struct CliOptions {
  const char* prog = "";          // argv[0]
  const Command* cmd = nullptr;   // the command being run
  std::vector<std::string> positional;  // merge's shard files, ...
  /// Every flag given, with its value (nullptr for a switch), in order:
  /// what drive forwards to its workers.
  std::vector<std::pair<const char*, const char*>> given;
  bool use_builtin = false;
  int pipeline_stages = 6;
  std::vector<std::string> spec_files;
  FlowOptions file_opts;     // mode + max-states + stop point for --spec files
  ThreadBudget budget;       // corpus/graph/candidate levels
  long deadline_ms = -1;
  bool timings = false;
  bool trace = false;
  std::string out_path;
  std::string netlist_out;   // run: final netlist dump file
  std::string netlist_dir;   // batch: per-item netlist dump directory
  std::size_t shard = 0, shard_of = 0;  // shard_of == 0: not given
  int shards = 0;            // drive: worker processes
  std::string work_dir;      // drive: checkpoint directory
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

/// Every numeric flag: all of `val` must be a decimal whole number in
/// [lo, the field's maximum] (no flag is negative). Returns an error
/// message, empty on success.
template <typename T>
std::string set_number(const char* val, std::type_identity_t<T> lo,
                       T* field) {
  const unsigned long long hi = std::numeric_limits<T>::max();
  const auto n =
      parse_whole_number(val, static_cast<unsigned long long>(lo), hi);
  if (!n)
    return strprintf("not a whole number in [%llu, %llu]",
                     static_cast<unsigned long long>(lo), hi);
  *field = static_cast<T>(*n);
  return {};
}

std::string set_endpoint(const char* val, std::string* field) {
  try {
    parse_tcp_endpoint(val);
  } catch (const Error& e) {
    return e.what();
  }
  *field = val;
  return {};
}

/// One row of the flag table: the only place a flag is spelled, described
/// and parsed. `set` stores the value (nullptr for a switch) and returns
/// an error message, empty when the value is well-formed.
struct Flag {
  const char* name;
  const char* value;  ///< --help placeholder; nullptr: a switch
  const char* help;
  std::string (*set)(CliOptions& o, const char* value);
};

const Flag kFlags[] = {
    {"--corpus", "builtin",
     "every built-in specification (default when no --spec is given)",
     [](CliOptions& o, const char* v) -> std::string {
       if (std::strcmp(v, "builtin") != 0) return "unknown corpus";
       o.use_builtin = true;
       return {};
     }},
    {"--spec", "FILE.g",
     "a .g STG file. Corpus commands take it repeatedly: corpus order is "
     "command-line order, after the built-ins. A name like pipelineN or "
     "ringN with no such file on disk builds the generated scaling spec",
     [](CliOptions& o, const char* v) {
       o.spec_files.push_back(v);
       return std::string();
     }},
    {"--pipeline-stages", "N", "largest built-in pipeline (default 6)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 1, &o.pipeline_stages);
     }},
    {"--mode", "si|rt",
     "synthesis mode for --spec files (default rt; built-ins choose their "
     "own)",
     [](CliOptions& o, const char* v) -> std::string {
       if (!std::strcmp(v, "si"))
         o.file_opts.mode = FlowMode::kSpeedIndependent;
       else if (!std::strcmp(v, "rt"))
         o.file_opts.mode = FlowMode::kRelativeTiming;
       else
         return "not si or rt";
       return {};
     }},
    {"--max-states", "N",
     "per-spec reachability cap (default 2^20); raise it for generated "
     "specs past pipeline19",
     [](CliOptions& o, const char* v) {
       return set_number(v, 1, &o.file_opts.sg.max_states);
     }},
    {"--to", "STAGE",
     "run through STAGE and stop (default synth; see `list-stages`). "
     "`--to verify-netlist` is the full Figure 2 flow",
     [](CliOptions& o, const char* v) -> std::string {
       if (stage_rank(v) < 0) return "unknown stage (see `list-stages`)";
       o.file_opts.stop_after = v;
       return {};
     }},
    {"--netlist-out", "FILE",
     "write the final (sized) netlist dump to FILE; requires --to map or "
     "later",
     [](CliOptions& o, const char* v) {
       o.netlist_out = v;
       return std::string();
     }},
    {"--netlist-dir", "DIR",
     "write each ok item's final netlist dump to DIR/<item>.nl; requires "
     "--to map or later",
     [](CliOptions& o, const char* v) {
       o.netlist_dir = v;
       return std::string();
     }},
    {"--threads", "N",
     "corpus-level workers: batch items, sweep variants, or submissions a "
     "daemon runs at once (default: hardware concurrency)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 1, &o.budget.corpus);
     }},
    {"--sg-threads", "N",
     "excitation-sweep workers inside each state-graph build of 32k+ "
     "edges; exploration stays sequential (default 1; 0 = hardware "
     "concurrency)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 0, &o.budget.graph);
     }},
    {"--csc-threads", "N",
     "candidate-level workers in the CSC search and the ring-environment "
     "assumption rounds (default 1; 0 = hardware concurrency)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 0, &o.budget.candidate);
     }},
    {"--deadline-ms", "N",
     "cooperative deadline for the whole command (submit: per request, "
     "enforced by the daemon); items past it fail with kind \"cancelled\"",
     [](CliOptions& o, const char* v) {
       return set_number(v, 0, &o.deadline_ms);
     }},
    {"--shard", "I/N",
     "run only the indices ≡ I (mod N), 0 <= I < N (corpus items for "
     "shard, variants for sweep) and emit a shard file",
     [](CliOptions& o, const char* v) -> std::string {
       const char* slash = std::strchr(v, '/');
       std::size_t i = 0, n = 0;
       if (!slash ||
           !set_number(std::string(v, slash).c_str(), 0, &i).empty() ||
           !set_number(slash + 1, 1, &n).empty() || i >= n)
         return "not I/N with 0 <= I < N";
       o.shard = i;
       o.shard_of = n;
       return {};
     }},
    {"--shards", "N", "number of worker processes",
     [](CliOptions& o, const char* v) {
       return set_number(v, 1, &o.shards);
     }},
    {"--work-dir", "DIR",
     "where the shard_<i>.json checkpoint files go (created if missing)",
     [](CliOptions& o, const char* v) {
       o.work_dir = v;
       return std::string();
     }},
    {"--resume", nullptr,
     "requires --out FILE. Reuse the records a partial FILE already holds "
     "(recomputing only missing indices) and checkpoint FILE atomically "
     "after every item, so a crashed process leaves a valid partial for "
     "the next --resume",
     [](CliOptions& o, const char*) {
       o.resume = true;
       return std::string();
     }},
    {"--cache", "DIR",
     "the content-addressed result store at DIR. Hits are byte-identical "
     "to a fresh run; run and batch report hits, misses and stores on "
     "stderr",
     [](CliOptions& o, const char* v) {
       o.cache_dir = v;
       return std::string();
     }},
    {"--cache-max-bytes", "N",
     "LRU-prune the store back under N bytes after each store (requires "
     "--cache; the just-written entry is never evicted)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 0, &o.cache_max_bytes);
     }},
    {"--max-bytes", "N", "the store size `cache prune` evicts down to",
     [](CliOptions& o, const char* v) {
       return set_number(v, 0, &o.max_bytes);
     }},
    {"--socket", "PATH", "the daemon's Unix-domain socket",
     [](CliOptions& o, const char* v) {
       o.socket_path = v;
       return std::string();
     }},
    {"--tcp", "HOST:PORT",
     "TCP listening endpoint (port 0 picks an ephemeral port, printed on "
     "stderr)",
     [](CliOptions& o, const char* v) { return set_endpoint(v, &o.tcp); }},
    {"--connect", "HOST:PORT", "the daemon's TCP endpoint",
     [](CliOptions& o, const char* v) {
       return set_endpoint(v, &o.connect);
     }},
    {"--name", "NAME",
     "item name in the record (single submit only; default: the --spec "
     "path)",
     [](CliOptions& o, const char* v) {
       o.submit_name = v;
       return std::string();
     }},
    {"--no-cache", nullptr, "ask the daemon to bypass its store",
     [](CliOptions& o, const char*) {
       o.no_cache = true;
       return std::string();
     }},
    {"--retries", "N",
     "retry transport failures (connection refused, mid-stream disconnect) "
     "up to N times with exponential backoff (default 3; a served error is "
     "an answer, not retried)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 0, &o.retries);
     }},
    {"--delay-variants", "N", "delay-grid samples (default 96)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 0, &o.sweep_delay_variants);
     }},
    {"--env-variants", "N", "environment phase samples (default 64)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 0, &o.sweep_env_variants);
     }},
    {"--no-faults", nullptr, "skip the stuck-at variants",
     [](CliOptions& o, const char*) {
       o.sweep_no_faults = true;
       return std::string();
     }},
    {"--seed", "N", "variant-grid sampler seed (default 1)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 0, &o.sweep_seed);
     }},
    {"--sim-ps", "N",
     "protocol-drive horizon per variant, in ps (default 60000)",
     [](CliOptions& o, const char* v) {
       return set_number(v, 1, &o.sweep_sim_ps);
     }},
    {"--trace", nullptr,
     "print per-stage progress to stderr (run: each stage's status, "
     "metrics and timing; submit: the streamed progress lines)",
     [](CliOptions& o, const char*) {
       o.trace = true;
       return std::string();
     }},
    {"--timings", nullptr, "include wall-clock times in the JSON",
     [](CliOptions& o, const char*) {
       o.timings = true;
       return std::string();
     }},
    {"--out", "FILE", "write the output to FILE instead of stdout",
     [](CliOptions& o, const char* v) {
       o.out_path = v;
       return std::string();
     }},
    // Every command takes --help (and -h); the parser answers it before
    // looking a flag up, so it has no setter.
    {"--help", nullptr, "this text", nullptr},
};

const Flag* find_flag(std::string_view name) {
  for (const Flag& f : kFlags)
    if (name == f.name) return &f;
  return nullptr;
}

/// One row of the command table: its --help text, the flags it takes and
/// how many positional arguments, and the handler `main` dispatches to.
struct Command {
  const char* name;
  const char* summary;   ///< its line in the global --help
  const char* synopsis;  ///< the usage line, after the program name
  const char* about;
  std::vector<std::string_view> flags;  ///< in --help order; --help implied
  std::size_t min_args, max_args;       ///< positional arguments
  int (*run)(const CliOptions& o);
};

/// One --help row: the flag and its value padded to column 23, then the
/// help text word-wrapped at 78 columns.
void print_flag(std::FILE* to, const Flag& f) {
  const std::string head =
      std::string(f.name) + (f.value ? std::string(" ") + f.value : "");
  std::string line = strprintf("  %-20s", head.c_str());
  for (const std::string& word : split(f.help)) {
    if (line.size() + 1 + word.size() > 78) {
      std::fprintf(to, "%s\n", line.c_str());
      line.assign(22, ' ');
    }
    line += ' ' + word;
  }
  std::fprintf(to, "%s\n", line.c_str());
}

void print_usage(std::FILE* to, const char* prog, const Command& c) {
  std::fprintf(to, "usage: %s %s\n\n%s\n\noptions:\n", prog, c.synopsis,
               c.about);
  for (std::string_view name : c.flags) {
    const Flag* f = find_flag(name);
    RTCAD_ASSERT(f != nullptr);
    print_flag(to, *f);
  }
  print_flag(to, *find_flag("--help"));
}

/// A usage error in the running command: the message, then the command's
/// usage, on stderr. Returns exit code 2.
int usage_error(const CliOptions& o, const std::string& message) {
  std::fprintf(stderr, "%s %s: %s\n", o.prog, o.cmd->name, message.c_str());
  print_usage(stderr, o.prog, *o.cmd);
  return 2;
}

/// Parse argv[2..] against `cmd`'s row. --help prints the command's usage
/// and exits 0; a flag the command does not take, a missing or malformed
/// value, or positional arguments outside its rule exit 2.
CliOptions parse_or_exit(int argc, char** argv, const Command& cmd) {
  CliOptions o;
  o.prog = argv[0];
  o.cmd = &cmd;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      print_usage(stdout, o.prog, cmd);
      std::exit(0);
    }
    if (arg[0] != '-') {
      if (o.positional.size() == cmd.max_args)
        std::exit(usage_error(o, strprintf("unexpected argument '%s'", arg)));
      o.positional.push_back(arg);
      continue;
    }
    const Flag* flag = find_flag(arg);
    if (!flag || std::find(cmd.flags.begin(), cmd.flags.end(),
                           std::string_view(arg)) == cmd.flags.end())
      std::exit(usage_error(o, strprintf("unknown option '%s'", arg)));
    const char* value = nullptr;
    if (flag->value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s %s: %s needs a value\n", o.prog, cmd.name,
                     arg);
        std::exit(2);
      }
      value = argv[++i];
    }
    const std::string error = flag->set(o, value);
    if (!error.empty()) {
      std::fprintf(stderr, "%s %s: %s '%s': %s\n", o.prog, cmd.name, arg,
                   value, error.c_str());
      std::exit(2);
    }
    o.given.emplace_back(flag->name, value);
  }
  if (o.positional.size() < cmd.min_args)
    std::exit(usage_error(o, "missing argument"));
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

/// `run --trace`: one stderr line per stage as it finishes, then the
/// stage's notes, indented under it.
void print_stage(const StageTrace& t) {
  std::string metrics;
  for (const StageMetric& m : t.metrics) {
    metrics += metrics.empty() ? " [" : ", ";
    metrics += m.key + "=" + std::to_string(m.value);
  }
  if (!metrics.empty()) metrics += "]";
  std::fprintf(stderr, "stage %-20s %-7s %s%s (%.2f ms)\n", t.stage.c_str(),
               status_word(t.status),
               t.status == StageStatus::kFailed ? t.error_message.c_str()
                                                : t.summary.c_str(),
               metrics.c_str(), t.wall_ms);
  for (const std::string& note : t.notes)
    std::fprintf(stderr, "      %s\n", note.c_str());
}

// --- subcommands ------------------------------------------------------------

/// `batch`, and `run` as its one-item case: the corpus through the batch
/// engine (through the result store with --cache), then the JSON and the
/// netlist dumps.
int run_corpus(const CliOptions& o, const std::vector<BatchSpec>& corpus) {
  if ((!o.netlist_out.empty() || !o.netlist_dir.empty()) &&
      !stop_reaches_map(o.file_opts.stop_after)) {
    std::fprintf(stderr, "%s %s: %s requires --to map or later\n", o.prog,
                 o.cmd->name,
                 o.netlist_out.empty() ? "--netlist-dir" : "--netlist-out");
    return 2;
  }
  CliContext cli(o);
  if (o.trace) cli.ctx.on_stage = print_stage;
  const auto start = std::chrono::steady_clock::now();
  BatchResult result;
  if (o.cache_dir.empty()) {
    result = run_batch(corpus, cli.ctx);
  } else {
    try {
      const ResultCache cache(o.cache_dir);
      CacheStats cs;
      result = run_batch_cached(corpus, cli.ctx, cache, &cs);
      std::fprintf(stderr, "cache: %lld hits, %lld misses, %lld stored (%s)\n",
                   cs.hits, cs.misses, cs.stores, cache.dir().c_str());
    } catch (const Error& e) {
      std::fprintf(stderr, "%s %s: %s\n", o.prog, o.cmd->name, e.what());
      return 1;
    }
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (!write_output(o.prog, o.out_path, to_json(result, o.timings))) return 1;
  if (!o.netlist_out.empty() && result.items[0].ok &&
      !write_output(o.prog, o.netlist_out, result.items[0].netlist_text))
    return 1;
  if (!o.netlist_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(o.netlist_dir, ec);
    if (ec) {
      std::fprintf(stderr, "%s batch: cannot create '%s': %s\n", o.prog,
                   o.netlist_dir.c_str(), ec.message().c_str());
      return 1;
    }
    for (const BatchItemResult& item : result.items) {
      if (item.netlist_text.empty()) continue;  // failed item: no netlist
      const std::string path =
          o.netlist_dir + "/" + netlist_file_name(item.name);
      if (!write_output(o.prog, path, item.netlist_text)) return 1;
    }
  }
  return result.failed_count == 0 ? 0 : 1;
}

int cmd_run(const CliOptions& o) {
  if (o.spec_files.size() != 1)
    return usage_error(o, "exactly one --spec FILE.g is required");
  return run_corpus(o, load_corpus_files(o.spec_files, o.file_opts));
}

int cmd_batch(const CliOptions& o) { return run_corpus(o, build_corpus(o)); }

/// A merged shard set as the single-process artifact it stands for, with
/// that command's exit code: a batch exits 1 if any item failed; sweep
/// findings are results, not failures, so a sweep exits 0.
std::pair<std::string, int> render_merged(const std::vector<ShardRun>& s) {
  const BatchResult result = merge_shards(s);
  return {to_json(result), result.failed_count == 0 ? 0 : 1};
}
std::pair<std::string, int> render_merged(const std::vector<SweepShard>& s) {
  return {to_sweep_json(merge_sweep_shards(s)), 0};
}

template <typename Record>
int merge_kind(const char* argv0, const char* cmd,
               const std::vector<std::string>& paths,
               const std::vector<Json>& roots, const std::string& out_path) {
  std::vector<Shard<Record>> shards;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    try {
      shards.push_back(read_shard<Record>(roots[i]));
    } catch (const Error& e) {
      std::fprintf(stderr, "%s %s: %s: %s\n", argv0, cmd, paths[i].c_str(),
                   e.what());
      return 1;
    }
  }
  std::pair<std::string, int> merged;
  try {
    merged = render_merged(shards);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s %s: %s\n", argv0, cmd, e.what());
    return 1;
  }
  return write_output(argv0, out_path, merged.first) ? merged.second : 1;
}

/// `merge`, and the tail of `drive`: read shard files of either kind
/// through the one reader and merge them as the kind the first file
/// names (a mixed set fails on the first file of the other kind).
int merge_shard_files(const char* argv0, const char* cmd,
                      const std::vector<std::string>& paths,
                      const std::string& out_path) {
  std::vector<Json> roots;
  for (const std::string& path : paths) {
    try {
      roots.push_back(parse_json(read_file(path), "shard JSON"));
    } catch (const Error& e) {
      std::fprintf(stderr, "%s %s: %s: %s\n", argv0, cmd, path.c_str(),
                   e.what());
      return 1;
    }
  }
  const Json* kind = roots[0].find("kind");
  if (kind && kind->str == ShardFormat<SweepOutcome>::kKind)
    return merge_kind<SweepOutcome>(argv0, cmd, paths, roots, out_path);
  return merge_kind<BatchItemResult>(argv0, cmd, paths, roots, out_path);
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

int cmd_shard(const CliOptions& o) {
  if (o.shard_of == 0) return usage_error(o, "--shard I/N is required");
  if (o.resume && o.out_path.empty()) {
    std::fprintf(stderr, "%s shard: --resume requires --out FILE\n", o.prog);
    return 2;
  }
  CliContext cli(o);
  ShardRun run;
  try {
    std::optional<ShardRun> partial;
    if (o.resume)
      if (const std::optional<std::string> text =
              read_file_if_exists(o.out_path))
        partial = parse_shard_json<BatchItemResult>(*text);
    run = run_shard(build_corpus(o), o.shard, o.shard_of, cli.ctx,
                    partial ? &*partial : nullptr, o.resume ? o.out_path : "",
                    o.resume ? crash_injection_hook(o.shard) : nullptr);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s shard: %s\n", o.prog, e.what());
    return 1;
  }
  int failed = 0;
  for (const ShardItem<BatchItemResult>& s : run.items)
    failed += s.record.ok ? 0 : 1;
  if (!write_output(o.prog, o.out_path, to_shard_json(run))) return 1;
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

int cmd_sweep(const CliOptions& o) {
  if (o.spec_files.size() != 1)
    return usage_error(o, "exactly one --spec NAME|FILE.g is required");
  const std::string& name = o.spec_files[0];
  Stg spec;
  std::string resolve_error;
  if (!resolve_sweep_spec(name, &spec, &resolve_error)) {
    std::fprintf(stderr, "%s sweep: %s\n", o.prog, resolve_error.c_str());
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
      text = to_shard_json(
          run_sweep_shard(name, spec, o.shard, o.shard_of, so, cli.ctx));
    else
      text = to_sweep_json(run_sweep(name, spec, so, cli.ctx));
  } catch (const Error& e) {
    std::fprintf(stderr, "%s sweep: %s\n", o.prog, e.what());
    return 1;
  }
  return write_output(o.prog, o.out_path, text) ? 0 : 1;
}

/// The process driver. Workers are this same binary re-executed as
/// `shard --resume`, so a crashed worker's checkpoint file makes its one
/// retry cheap: only the items the crash lost are recomputed. Every flag
/// was checked by the parser before any fork; all but drive's own three
/// are forwarded to every worker verbatim.
int cmd_drive(const CliOptions& o) {
  const int shards = o.shards;
  if (shards < 1 || o.work_dir.empty())
    return usage_error(o, "--shards N and --work-dir DIR are required");
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "%s drive: cannot create '%s': %s\n", o.prog,
                 o.work_dir.c_str(), ec.message().c_str());
    return 1;
  }
  std::vector<std::string> passthrough;
  for (const auto& [flag, value] : o.given) {
    const std::string_view f = flag;
    if (f == "--shards" || f == "--work-dir" || f == "--out") continue;
    passthrough.push_back(flag);
    if (value) passthrough.push_back(value);
  }

  struct Worker {
    pid_t pid = -1;
    int attempts = 0;
    std::string out;
  };
  std::vector<Worker> workers(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i)
    workers[static_cast<std::size_t>(i)].out =
        o.work_dir + "/shard_" + std::to_string(i) + ".json";

  const auto launch = [&](int i) -> pid_t {
    Worker& w = workers[static_cast<std::size_t>(i)];
    std::vector<std::string> args = {o.prog, "shard", "--shard",
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
      std::fprintf(stderr, "%s drive: fork(): %s\n", o.prog,
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
      std::fprintf(stderr, "%s drive: waitpid(): %s\n", o.prog,
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
                   o.prog, idx, shards, how.c_str());
      gave_up = true;
      --live;
      continue;
    }
    std::fprintf(stderr,
                 "%s drive: shard %d/%d crashed (%s); retrying once, "
                 "resuming '%s'\n",
                 o.prog, idx, shards, how.c_str(), w.out.c_str());
    w.pid = launch(idx);
    if (w.pid < 0) {
      std::fprintf(stderr, "%s drive: fork(): %s\n", o.prog,
                   std::strerror(errno));
      return 1;
    }
  }
  if (gave_up) return 1;

  std::vector<std::string> paths;
  for (const Worker& w : workers) paths.push_back(w.out);
  return merge_shard_files(o.prog, "drive", paths, o.out_path);
}

// --- serve / submit / cache -------------------------------------------------

volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int) { g_stop_signal = 1; }

int cmd_serve(const CliOptions& o) {
  if (o.socket_path.empty() && o.tcp.empty())
    return usage_error(o, "--socket PATH or --tcp HOST:PORT is required");
  if (o.cache_max_bytes >= 0 && o.cache_dir.empty()) {
    std::fprintf(stderr, "%s serve: --cache-max-bytes requires --cache DIR\n",
                 o.prog);
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
    std::fprintf(stderr, "%s serve: %s\n", o.prog, e.what());
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
std::optional<Endpoint> client_endpoint(const CliOptions& o) {
  if (o.socket_path.empty() == o.connect.empty()) {
    usage_error(o, "exactly one of --socket PATH or --connect HOST:PORT is "
                   "required");
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

/// The tail both forms of `submit` share: parse each served record into
/// its corpus slot, then write the batch envelope — byte-identical to
/// `run`/`batch` over the same specs — and return batch's exit code.
int write_served(const CliOptions& o, std::vector<BatchItemResult> items,
                 const std::vector<std::string>& records,
                 const std::vector<std::size_t>& slots) {
  for (std::size_t w = 0; w < records.size(); ++w) {
    try {
      items[slots[w]] = parse_item_record_json(records[w]);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s submit: malformed record from server: %s\n",
                   o.prog, e.what());
      return 1;
    }
  }
  const BatchResult result = tally(std::move(items));
  if (!write_output(o.prog, o.out_path, to_json(result))) return 1;
  return result.failed_count == 0 ? 0 : 1;
}

/// submit with a multi-spec corpus: stream the whole set through the
/// `batch` verb on one connection and reassemble the canonical batch
/// envelope — byte-identical to `rtflow_cli batch` over the same corpus.
/// Items that failed to LOAD locally never reach the wire: their records
/// render here, exactly as batch would (load diagnostics are a local
/// fact; the server never saw the file).
int submit_batch(const CliOptions& o, const Endpoint& endpoint) {
  const std::vector<BatchSpec> corpus = build_corpus(o);
  std::vector<SubmitRequest> wire_items;
  std::vector<std::size_t> wire_to_corpus;
  std::vector<BatchItemResult> items(corpus.size());
  FlowContext local_ctx;  // only renders load-error diagnostics
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const BatchSpec& item = corpus[i];
    if (item.load_error) {
      items[i] = run_batch_item(item, local_ctx);
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
        o.prog, o.retries, [&]() -> BatchSubmitResult {
          return serve_submit_batch(
              endpoint, wire_items, bo, [&](const std::string& line) {
                if (o.trace && starts_with(line, "item "))
                  std::fprintf(stderr, "%s\n", line.c_str());
              });
        });
    if (!res.protocol_ok) {
      std::fprintf(stderr, "%s submit: %s\n", o.prog, res.error.c_str());
      return 1;
    }
    if (res.records.size() != wire_items.size()) {
      std::fprintf(stderr,
                   "%s submit: server streamed %zu records for %zu items\n",
                   o.prog, res.records.size(), wire_items.size());
      return 1;
    }
  }
  return write_served(o, std::move(items), res.records, wire_to_corpus);
}

int cmd_submit(const CliOptions& o) {
  const std::optional<Endpoint> endpoint = client_endpoint(o);
  if (!endpoint) return 2;
  // Multiple --spec files (or --corpus builtin) go through the `batch`
  // verb: one connection, one record streamed per item in corpus order.
  // One spec keeps the `submit` verb, which streams its stage lines.
  if (o.use_builtin || o.spec_files.size() > 1)
    return submit_batch(o, *endpoint);
  if (o.spec_files.size() != 1)
    return usage_error(o, "--spec FILE.g (or --corpus builtin) is required");
  SubmitRequest req;
  req.name = o.submit_name.empty() ? o.spec_files[0] : o.submit_name;
  {
    std::ifstream in(o.spec_files[0], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s submit: cannot read '%s'\n", o.prog,
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
      o.prog, o.retries, [&]() -> SubmitResult {
        return serve_submit(*endpoint, req, [&](const std::string& line) {
          if (o.trace && (starts_with(line, "stage ") ||
                          starts_with(line, "cache ")))
            std::fprintf(stderr, "%s\n", line.c_str());
        });
      });
  if (!res.protocol_ok) {
    std::fprintf(stderr, "%s submit: %s\n", o.prog, res.error.c_str());
    return 1;
  }
  return write_served(o, std::vector<BatchItemResult>(1), {res.record_json},
                      {0});
}

int cmd_metrics(const CliOptions& o) {
  const std::optional<Endpoint> endpoint = client_endpoint(o);
  if (!endpoint) return 2;
  std::string json;
  try {
    json = serve_metrics(*endpoint);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s metrics: %s\n", o.prog, e.what());
    return 1;
  }
  if (!write_output(o.prog, o.out_path, json + "\n")) return 1;
  return 0;
}

int cmd_cache(const CliOptions& o) {
  const std::string& verb = o.positional[0];
  try {
    if (verb == "stats" || verb == "clear" || verb == "prune") {
      if (o.cache_dir.empty()) {
        std::fprintf(stderr, "%s cache %s: --cache DIR is required\n",
                     o.prog, verb.c_str());
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
                       o.prog);
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
                     o.prog);
        return 2;
      }
      const std::vector<BatchSpec> corpus =
          load_corpus_files(o.spec_files, o.file_opts);
      if (corpus[0].load_error) {
        std::fprintf(stderr, "%s cache key: %s\n", o.prog,
                     corpus[0].load_error->message.c_str());
        return 1;
      }
      std::printf("%s\n", cache_key(corpus[0]).c_str());
      return 0;
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s cache: %s\n", o.prog, e.what());
    return 1;
  }
  return usage_error(o, "unknown subcommand '" + verb + "'");
}

int cmd_merge(const CliOptions& o) {
  return merge_shard_files(o.prog, "merge", o.positional, o.out_path);
}

int cmd_list(const CliOptions& o) {
  for (const auto& item : build_corpus(o)) std::puts(item.name.c_str());
  return 0;
}

/// Print the stage registry — one line per canonical name, in rank
/// order: name, the modes that run it, description. The machine-readable
/// source of `--to` targets.
int cmd_list_stages(const CliOptions&) {
  for (const StageInfo& s : stage_registry()) {
    const char* modes = s.in_rt && s.in_si ? "rt,si" : (s.in_rt ? "rt" : "si");
    std::printf("%-20s %-6s %s\n", s.name, modes, s.title);
  }
  return 0;
}

/// Write the builder specs as `.g` files — the reproducible half of the
/// checked-in specs/ corpus (tools/gen_golden.sh re-runs this).
int cmd_export_specs(const CliOptions& o) {
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
    if (!write_output(o.prog, path, write_stg(item.spec))) return 1;
  }
  return 0;
}
const Command kCommands[] = {
    {"run", "run ONE .g specification through the flow",
     "run --spec FILE.g [options]",
     "Run exactly one specification through the staged flow and emit the\n"
     "canonical one-item batch JSON: the bytes `batch` prints for the same\n"
     "spec and flags. --spec is required, exactly once.",
     {"--spec", "--mode", "--max-states", "--to", "--netlist-out",
      "--sg-threads", "--csc-threads", "--deadline-ms", "--cache", "--trace",
      "--timings", "--out"},
     0, 0, cmd_run},
    {"batch", "run a corpus of specifications, emit canonical JSON",
     "batch [options]",
     "Run the corpus on a worker pool and emit canonical JSON (the\n"
     "golden-diffed format; `--timings` adds wall clocks for humans). The\n"
     "bytes are the same at any thread mixture and with or without\n"
     "--cache.",
     {"--corpus", "--spec", "--pipeline-stages", "--mode", "--max-states",
      "--to", "--netlist-dir", "--threads", "--sg-threads", "--csc-threads",
      "--deadline-ms", "--cache", "--timings", "--out"},
     0, 0, cmd_batch},
    {"shard", "run shard i of N of a corpus, emit a shard file",
     "shard --shard I/N [options]",
     "Run the items whose corpus index ≡ I (mod N) and emit a versioned\n"
     "shard file (\"schema\": 1, records keyed by corpus index). --shard is\n"
     "required. Every shard process must be given the SAME corpus flags in\n"
     "the same order; `merge` reassembles N shard files into output\n"
     "byte-identical to a single-process `batch`. A --resume partial from\n"
     "a different corpus, flags or shard id fails loudly.",
     {"--shard", "--corpus", "--spec", "--pipeline-stages", "--mode",
      "--max-states", "--to", "--threads", "--sg-threads", "--csc-threads",
      "--deadline-ms", "--resume", "--out"},
     0, 0, cmd_shard},
    {"sweep", "fan ONE spec out over fault/delay/environment variants",
     "sweep --spec NAME|FILE.g [options]",
     "Robustness battery: run ONE specification through the flow, then\n"
     "fan it out over generated variants — every single-stuck-at fault\n"
     "site of the synthesized netlist (driven by the spec's own\n"
     "protocol), delay-window assignments sampled from a seeded grid\n"
     "(stressing the back-annotated RT constraints via metric-timed\n"
     "reduction), and environment phase offsets — and emit the\n"
     "canonical SweepReport JSON (normative schema: docs/CLI.md).\n"
     "--spec is required, exactly once: a path, a generated name\n"
     "(pipelineN/ringN), NAME.g, or specs/NAME.g — first match wins.\n"
     "Byte-identical at any --threads value; a --shard I/N run emits a\n"
     "sweep shard file instead, and `merge` over a complete shard set\n"
     "reproduces the single-process report byte-for-byte.\n"
     "\n"
     "Exit: 0 sweep ran (undetected faults / broken windows are\n"
     "FINDINGS, reported in the JSON, not failures); 1 the flow or the\n"
     "fault-free protocol run failed, or output could not be written;\n"
     "2 usage error.",
     {"--spec", "--mode", "--max-states", "--delay-variants",
      "--env-variants", "--no-faults", "--seed", "--sim-ps", "--shard",
      "--threads", "--sg-threads", "--csc-threads", "--deadline-ms", "--out"},
     0, 0, cmd_sweep},
    {"merge", "reassemble N shard files (batch or sweep) into JSON",
     "merge SHARD.json... [options]",
     "Validate and reassemble N shard files (one per shard id) into the\n"
     "canonical batch JSON — byte-identical to running the whole corpus\n"
     "in one `batch` process. Exit code follows the batch contract: 1 if\n"
     "any merged item failed.\n"
     "\n"
     "Sweep shard files (\"kind\": \"sweep-shard\", from `sweep --shard`)\n"
     "are detected from the first file and merged into the canonical\n"
     "SweepReport instead — byte-identical to the single-process `sweep`.\n"
     "Batch and sweep shards cannot be mixed. Sweep merges exit 0 on\n"
     "success: undetected faults are findings, not failures.",
     {"--out"},
     1, std::numeric_limits<std::size_t>::max(), cmd_merge},
    {"drive", "launch N shard worker processes, retry crashes, merge",
     "drive --shards N --work-dir DIR [options]",
     "Multi-process batch: launch N `shard --resume` worker processes\n"
     "(re-executing this binary), wait for them, retry each crashed shard\n"
     "exactly once (the retry resumes the crashed worker's checkpoint\n"
     "file, so completed items are not recomputed), then merge\n"
     "in-process. The merged JSON is byte-identical to a single-process\n"
     "`batch` over the same corpus. --shards and --work-dir are required;\n"
     "valid partials already in the work directory are resumed, which is\n"
     "also how YOU recover from a killed drive. Every option but\n"
     "--shards, --work-dir and --out is checked here, then forwarded to\n"
     "every worker.\n"
     "\n"
     "Exit: 0 all items ok; 1 an item failed, a worker crashed twice, or\n"
     "output could not be written; 2 usage error.",
     {"--shards", "--work-dir", "--out", "--corpus", "--spec",
      "--pipeline-stages", "--mode", "--max-states", "--to", "--threads",
      "--sg-threads", "--csc-threads", "--deadline-ms"},
     0, 0, cmd_drive},
    {"serve", "long-running daemon: submissions over Unix socket/TCP",
     "serve --socket PATH|--tcp HOST:PORT [options]",
     "Flow-as-a-service: listen on a Unix-domain socket and/or a TCP\n"
     "endpoint (the SAME line protocol over both; at least one is\n"
     "required), accept submissions (see `submit`), schedule at most the\n"
     "corpus thread budget concurrently, stream per-stage progress, honor\n"
     "per-request deadlines, consult/populate the result store, and keep\n"
     "a metrics registry (see `metrics`). Runs until a client's\n"
     "`shutdown` verb or SIGINT/SIGTERM. A stale socket file is replaced;\n"
     "a live daemon on the path, or a TCP bind failure, is a clean error\n"
     "(exit 1). Protocol spec: docs/CLI.md.",
     {"--socket", "--tcp", "--cache", "--cache-max-bytes", "--threads",
      "--sg-threads", "--csc-threads"},
     0, 0, cmd_serve},
    {"submit", "send specifications to a serve daemon (one, or a corpus)",
     "submit --socket PATH|--connect HOST:PORT --spec FILE.g... [options]",
     "Send specifications to a running serve daemon (exactly one of\n"
     "--socket and --connect) and print the canonical batch JSON. One\n"
     "--spec: byte-identical to `run` with the same spec and flags.\n"
     "Several --spec flags (or --corpus builtin): the whole set streams\n"
     "through the daemon's `batch` verb on one connection, one record per\n"
     "item in corpus order — byte-identical to `batch` over the same\n"
     "corpus.",
     {"--socket", "--connect", "--spec", "--corpus", "--pipeline-stages",
      "--name", "--mode", "--max-states", "--to", "--deadline-ms",
      "--no-cache", "--retries", "--trace", "--out"},
     0, 0, cmd_submit},
    {"metrics", "fetch a serve daemon's metrics snapshot as JSON",
     "metrics --socket PATH|--connect HOST:PORT [options]",
     "Fetch a serve daemon's metrics snapshot (exactly one of --socket and\n"
     "--connect) and print it as one line of JSON: counters, gauges, and\n"
     "fixed-bucket latency histograms (per flow stage and per request).\n"
     "The schema is deterministic — only observed values vary between\n"
     "runs; the normative table is in docs/CLI.md.",
     {"--socket", "--connect", "--out"},
     0, 0, cmd_metrics},
    {"cache", "inspect or prune the content-addressed result store",
     "cache stats|clear|prune|key [options]",
     "Inspect or prune the content-addressed result store.\n"
     "\n"
     "  stats --cache DIR    entry count and total bytes\n"
     "  clear --cache DIR    delete every entry (prints how many)\n"
     "  prune --cache DIR --max-bytes N\n"
     "                       evict least-recently-used entries until the\n"
     "                       store fits in N bytes (recency = last store\n"
     "                       or cache hit; deterministic order)\n"
     "  key --spec FILE.g [--mode si|rt] [--max-states N] [--to STAGE]\n"
     "                       print the cache key those flags address —\n"
     "                       the normative key definition is in\n"
     "                       docs/CLI.md",
     {"--cache", "--max-bytes", "--spec", "--mode", "--max-states", "--to"},
     1, 1, cmd_cache},
    {"list", "print the corpus item names", "list [options]",
     "Print corpus item names, one per line, in corpus-index order (the\n"
     "order shard ids are computed from).",
     {"--corpus", "--spec", "--pipeline-stages", "--mode", "--max-states"},
     0, 0, cmd_list},
    {"list-stages", "print the canonical flow stage names (--to targets)",
     "list-stages",
     "Print every canonical flow stage in Figure 2 order — the names\n"
     "`--to STAGE` accepts — with the modes that run it and a one-line\n"
     "description. Stages sharing a rank (synth-rt, synth-si and the\n"
     "synth alias) are one stop point.",
     {}, 0, 0, cmd_list_stages},
    {"export-specs", "write the built-in builder specs as .g files",
     "export-specs DIR",
     "Write every built-in builder spec to DIR as .g files (the\n"
     "reproducible half of the checked-in specs/ corpus;\n"
     "tools/gen_golden.sh re-runs this).",
     {}, 1, 1, cmd_export_specs},
};

/// The global --help: every command, then every flag.
void print_global_usage(std::FILE* to, const char* prog) {
  std::fprintf(to, "usage: %s <command> [options]\n\ncommands:\n", prog);
  for (const Command& c : kCommands)
    std::fprintf(to, "  %-13s %s\n", c.name, c.summary);
  std::fprintf(to, "\noptions (`<command> --help` lists the ones each "
                   "command takes):\n");
  for (const Flag& f : kFlags) print_flag(to, f);
  std::fprintf(to,
               "\nexit codes: 0 success; 1 runtime failure (failed item, "
               "bad input\nfile, unwritable output); 2 usage error.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc < 2 ? "" : argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_global_usage(stdout, argv[0]);
    return 0;
  }
  for (const Command& c : kCommands)
    if (cmd == c.name) return c.run(parse_or_exit(argc, argv, c));
  if (argc >= 2)
    std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0], cmd.c_str());
  print_global_usage(stderr, argv[0]);
  return 2;
}
