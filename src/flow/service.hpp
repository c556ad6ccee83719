// Flow-as-a-service: a long-running daemon that accepts specification
// submissions over a local Unix-domain socket and/or a TCP endpoint,
// schedules them on the FlowContext ThreadBudget, streams per-stage
// progress, honors per-request CancelToken deadlines, consults and
// populates the content-addressed result cache, and keeps a
// MetricsRegistry of what it is doing. `rtflow_cli serve` is a thin
// wrapper over FlowService; `rtflow_cli submit` over
// serve_submit/serve_submit_batch. Tests drive both in-process.
//
// One request path serves both item verbs. A `submit` is the one-item
// `batch`: one reader parses either request (the submission's item is
// named "<submitted>" and takes no `item` line), one loop answers it, and
// the verb picks only the framing lines. Each item goes through the same
// store policy as `batch --cache` (cached_item in flow/cache.hpp). The
// daemon's only tally is its registry: ServeStats and the `stats` line
// read the `serve.*` counters back. On the client side one exchange
// (connect, send, banner check) sits under all four client calls.
//
// Wire protocol (line-oriented, LF-terminated, one request per
// connection, IDENTICAL over both transports; normative reference in
// docs/CLI.md):
//
//   client -> server
//     rtflow-serve 1
//     submit
//     name <display name>            (optional; default "<submitted>")
//     mode rt|si                     (optional; default rt)
//     max-states <N>                 (optional)
//     to <stage>                     (optional; see list-stages)
//     deadline-ms <N>                (optional; per-request CancelToken)
//     cache on|off                   (optional; default on when the
//                                     server has a store)
//     spec <byte-count>              (then exactly that many raw bytes
//     <.g specification bytes>        of .g text, then a newline)
//     run
//
//   server -> client (streamed as produced)
//     rtflow-serve 1
//     accepted key=<64 hex | ->      ("-": no store or load error)
//     cache hit|miss|off
//     stage <name> <ok|skipped|failed> <summary|error>   (misses only,
//                                     one line per finished stage)
//     record <byte-count>            (then exactly that many bytes: the
//     <canonical item record JSON>    same bytes a batch would emit for
//                                     this item, then a newline)
//     done
//
//   The `batch` verb submits a whole corpus on one connection and
//   streams one record per item in corpus order (bytes identical to
//   `rtflow_cli batch` for the same items — both sides render through
//   item_record_json):
//
//   client -> server
//     rtflow-serve 1
//     batch
//     cache on|off                   (optional, whole batch)
//     deadline-ms <N>                (optional, whole batch)
//     item <display name>            (one block per spec, corpus order)
//     mode rt|si                     (optional, this item)
//     max-states <N>                 (optional)
//     to <stage>                     (optional)
//     spec <byte-count>
//     <.g specification bytes>
//     ... more item blocks ...
//     run
//
//   server -> client
//     rtflow-serve 1
//     accepted items=<N>
//     item <index> key=<64 hex | -> cache hit|miss|off
//     record <byte-count>
//     <canonical item record JSON>
//     ... per item, corpus order ...
//     done
//
//   The spec payloads of one request sum to at most
//   SocketReader::kMaxPayloadBytes; a `spec` size line past what is left
//   is refused before its payload is read.
//
//   Control verbs replace "submit": "ping" -> "pong"; "shutdown" ->
//   "bye", then the server stops accepting and drains. "stats" -> the
//   legacy one-line "stats ..." summary, then a framed metrics JSON
//   snapshot ("metrics <byte-count>" + payload + "done") — clients that
//   read only the first line (serve_control) keep working. A malformed
//   request gets "error <message>" and the connection is closed; the
//   server survives.
//
// Scheduling: at most ThreadBudget::corpus items run their flow
// concurrently (a counting gate, FIFO-fair by arrival at the gate); the
// graph and candidate levels of the budget apply inside each request's
// pipeline, exactly as in a batch. A request's items run sequentially on
// their connection, each taking one gate slot — concurrency comes from
// concurrent connections. A request whose deadline fires — or whose
// client disconnects mid-stream — is cancelled cooperatively and
// reports the flow's byte-stable "cancelled" diagnostic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flow/context.hpp"
#include "flow/rtflow.hpp"
#include "flow/transport.hpp"

namespace rtcad {

/// Protocol version spoken by this build (the "rtflow-serve N" banner).
inline constexpr int kServeProtocol = 1;

struct ServeOptions {
  /// Filesystem path of the Unix-domain listening socket. A stale socket
  /// file from a dead server is replaced; a live server on the same path
  /// makes start() throw. Empty: no Unix listener (then `tcp` must be
  /// set).
  std::string socket_path;
  /// TCP endpoint "HOST:PORT" to listen on alongside (or instead of) the
  /// Unix socket; port 0 binds an ephemeral port readable via
  /// tcp_port(). Empty: no TCP listener.
  std::string tcp;
  /// corpus = max concurrent flow runs; graph/candidate apply per request.
  ThreadBudget budget;
  /// Result-store directory; empty serves without memoization.
  std::string cache_dir;
  /// When > 0, the store is LRU-pruned back under this many bytes after
  /// each miss is persisted; the just-written entry is never evicted.
  std::uintmax_t cache_max_bytes = 0;
};

/// The daemon's tally, read from its registry's `serve.*` counters (the
/// field comments name each one).
struct ServeStats {
  long long requests = 0;        ///< serve.submit_total: items served
  long long cache_hits = 0;      ///< serve.cache_hit_total
  long long cache_misses = 0;    ///< serve.cache_miss_total
  long long cancelled = 0;       ///< serve.cancelled_total
  long long protocol_errors = 0; ///< serve.protocol_error_total
  long long evicted = 0;         ///< serve.cache_evict_total
};

class MetricsRegistry;

class FlowService {
 public:
  explicit FlowService(ServeOptions opts);
  ~FlowService();  ///< stops and joins if still running

  FlowService(const FlowService&) = delete;
  FlowService& operator=(const FlowService&) = delete;

  /// Bind, listen, and start one acceptor per configured transport.
  /// Throws Error when any listener cannot be created — Unix path too
  /// long / directory missing / address held by a live daemon, TCP port
  /// in use or privileged. Always a clean Error, never an abort; on
  /// failure no listener is left running.
  void start();

  /// Stop accepting, cancel every in-flight request, join all
  /// connection threads, unlink the socket. Idempotent.
  void stop();

  /// Block until a client's "shutdown" verb (or stop() from another
  /// thread). `poll` (optional) runs every ~200 ms — the CLI uses it to
  /// observe signal flags.
  void wait(const std::function<bool()>& keep_running = {});

  bool running() const;
  ServeStats stats() const;
  const std::string& socket_path() const;
  /// The bound TCP port (resolving an ephemeral ":0" bind), or 0 when
  /// no TCP listener is configured / the service has not started.
  int tcp_port() const;
  /// The server's metrics registry (counters/gauges/histograms fed by
  /// the request path and by each run's on_stage observer). Valid for
  /// the service's lifetime; thread-safe.
  MetricsRegistry& metrics();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// --- client half ------------------------------------------------------------

struct SubmitRequest {
  std::string name;           ///< display name; "" lets the server default
  std::string spec_text;      ///< .g specification bytes
  FlowMode mode = FlowMode::kRelativeTiming;
  std::size_t max_states = 0; ///< 0: server default
  std::string stop_after;     ///< "": server default (synth)
  long deadline_ms = -1;      ///< <0: none
  bool use_cache = true;
};

struct SubmitResult {
  bool protocol_ok = false;    ///< the exchange itself completed
  std::string error;           ///< protocol-level failure (when !protocol_ok)
  /// The failure happened in the transport — connect refused, banner
  /// never arrived, stream cut mid-record — as opposed to the server
  /// answering "error ...". Transport failures are the retryable class
  /// (`submit --retries`); a served error is an answer, not a failure.
  bool transport_failure = false;
  std::string cache_status;    ///< "hit", "miss" or "off"
  std::string key;             ///< cache key, or "-"
  std::vector<std::string> stage_lines;  ///< streamed "stage ..." payloads
  std::string record_json;     ///< canonical item record bytes
};

/// Submit one specification and collect the streamed response.
/// `on_line` (optional) observes every response line as it arrives —
/// before the call returns — which is how the CLI streams progress to a
/// terminal. Connect failures are reported in the result (error +
/// transport_failure), not thrown.
SubmitResult serve_submit(
    const Endpoint& endpoint, const SubmitRequest& req,
    const std::function<void(const std::string& line)>& on_line = {});

/// Whole-batch options carried by the `batch` verb (per-item fields ride
/// on each SubmitRequest; its deadline_ms/use_cache are ignored).
struct BatchSubmitOptions {
  bool use_cache = true;
  long deadline_ms = -1;  ///< whole-batch deadline; <0: none
};

struct BatchSubmitResult {
  bool protocol_ok = false;
  std::string error;
  bool transport_failure = false;          ///< see SubmitResult
  std::vector<std::string> records;        ///< per item, corpus order
  std::vector<std::string> cache_statuses; ///< "hit"|"miss"|"off" per item
};

/// Submit a corpus over one connection via the `batch` verb; records
/// stream back in corpus order, each byte-identical to what
/// `rtflow_cli batch` would emit for that item. `on_line` observes
/// response framing lines (not record payloads) as they arrive.
BatchSubmitResult serve_submit_batch(
    const Endpoint& endpoint, const std::vector<SubmitRequest>& items,
    const BatchSubmitOptions& opts = {},
    const std::function<void(const std::string& line)>& on_line = {});

/// Send a control verb ("ping", "stats", "shutdown"); returns the first
/// response line. Throws Error when the endpoint cannot be reached.
std::string serve_control(const Endpoint& endpoint, const std::string& verb);

/// Fetch the daemon's metrics snapshot: the framed JSON payload of the
/// extended "stats" response (deterministic schema; see docs/CLI.md).
/// Throws Error when the endpoint cannot be reached or the response is
/// malformed.
std::string serve_metrics(const Endpoint& endpoint);

}  // namespace rtcad
