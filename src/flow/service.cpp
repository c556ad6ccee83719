#include "flow/service.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "flow/batchflow.hpp"
#include "flow/cache.hpp"
#include "flow/metrics.hpp"
#include "flow/pipeline.hpp"
#include "flow/transport.hpp"
#include "stg/parse.hpp"
#include "util/strings.hpp"
#include "util/workpool.hpp"

namespace rtcad {
namespace {

using LineSink = std::function<void(const std::string&)>;
using StageSink = std::function<void(const StageTrace&)>;

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

std::string serve_banner() {
  return strprintf("rtflow-serve %d", kServeProtocol);
}

/// One-line stage report: summaries never contain newlines by the trace
/// contract, but a defensive flattening keeps the protocol line-safe.
std::string stage_line(const StageTrace& t) {
  std::string text =
      t.status == StageStatus::kFailed ? t.error_message : t.summary;
  for (char& c : text)
    if (c == '\n' || c == '\r') c = ' ';
  return "stage " + t.stage + " " + status_word(t.status) + " " + text;
}

long long us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One `submit` or `batch` request as read off the wire.
struct Request {
  bool use_cache = true;
  long deadline_ms = -1;  ///< <0: none
  std::vector<SubmitRequest> items;
};

}  // namespace

// --- server -----------------------------------------------------------------

struct FlowService::Impl {
  explicit Impl(ServeOptions o) : opts(std::move(o)) {}

  ServeOptions opts;
  std::optional<ResultCache> cache;  // constructed at start() when dir given
  MetricsRegistry registry;

  std::vector<Listener> listeners;
  std::vector<std::thread> acceptors;
  int bound_tcp_port = 0;
  std::vector<std::thread> handlers;
  std::vector<std::thread::id> finished;  // returned handlers, to be joined
  mutable std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool stopping = false;
  bool shutdown_requested = false;  // via the wire
  int active_flows = 0;             // gate occupancy
  int flow_limit = 1;
  std::set<int> open_fds;                       // to shutdown() on stop
  std::set<const CancelToken*> active_tokens;   // to cancel on stop

  // --- gate: at most `flow_limit` concurrent pipeline runs ---------------
  // A run's token is tracked from before it waits until it leaves, so
  // stop() cancels waiting and running flows alike.
  void gate_acquire(CancelToken* token) {
    std::unique_lock<std::mutex> lock(mu);
    active_tokens.insert(token);
    cv.wait(lock, [this] { return active_flows < flow_limit || stopping; });
    ++active_flows;
    registry.gauge("serve.active_flows").set(active_flows);
    if (stopping) token->request_cancel();
  }
  void gate_release(const CancelToken* token) {
    {
      std::lock_guard<std::mutex> lock(mu);
      --active_flows;
      active_tokens.erase(token);
      registry.gauge("serve.active_flows").set(active_flows);
    }
    cv.notify_all();
  }

  ServeStats stats() const {
    return ServeStats{registry.counter_value("serve.submit_total"),
                      registry.counter_value("serve.cache_hit_total"),
                      registry.counter_value("serve.cache_miss_total"),
                      registry.counter_value("serve.cancelled_total"),
                      registry.counter_value("serve.protocol_error_total"),
                      registry.counter_value("serve.cache_evict_total")};
  }

  // --- request handling ---------------------------------------------------

  void handle_connection(int fd) {
    SocketReader in(fd);
    std::string line;
    const std::string banner = serve_banner();

    // Every handler answers a failed read_line() with protocol_error()
    // and returns, which closes the connection; an over-long line is
    // reported as what it is.
    const auto protocol_error = [&](const std::string& message) {
      registry.counter("serve.protocol_error_total").add(1);
      send_line(fd, banner);
      send_line(fd, "error " + (in.line_too_long()
                                    ? strprintf("request line longer than "
                                                "%zu bytes",
                                                SocketReader::kMaxLineBytes)
                                    : message));
    };

    if (!in.read_line(&line) || line != banner) {
      protocol_error(strprintf("expected banner '%s'", banner.c_str()));
      return;
    }
    if (!in.read_line(&line)) {
      protocol_error("missing verb");
      return;
    }

    if (line == "ping") {
      send_line(fd, banner);
      send_line(fd, "pong");
      return;
    }
    if (line == "stats") {
      // Legacy one-line summary FIRST (serve_control and older clients
      // read only this), then the framed metrics snapshot.
      const ServeStats s = stats();
      int active = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        active = active_flows;
      }
      const std::string summary = strprintf(
          "stats requests=%lld cache_hits=%lld cache_misses=%lld "
          "cancelled=%lld protocol_errors=%lld active=%d evicted=%lld",
          s.requests, s.cache_hits, s.cache_misses, s.cancelled,
          s.protocol_errors, active, s.evicted);
      const std::string metrics_json = registry.to_json();
      send_line(fd, banner);
      send_line(fd, summary);
      send_line(fd, strprintf("metrics %zu", metrics_json.size()));
      send_all(fd, metrics_json.data(), metrics_json.size());
      send_line(fd, "");
      send_line(fd, "done");
      return;
    }
    if (line == "shutdown") {
      send_line(fd, banner);
      send_line(fd, "bye");
      {
        std::lock_guard<std::mutex> lock(mu);
        shutdown_requested = true;
      }
      cv.notify_all();
      return;
    }
    if (line == "submit" || line == "batch") {
      const bool batch = line == "batch";
      Request req;
      if (read_request(&in, batch, &req, protocol_error))
        answer(fd, batch, req);
      return;
    }
    protocol_error("unknown verb '" + line + "'");
  }

  /// Read a `submit` or `batch` request up to its `run` line. A
  /// submission is the one-item case: its item is named "<submitted>"
  /// and it takes no `item` line. Returns false after reporting a
  /// malformed request.
  static bool read_request(SocketReader* in, bool batch, Request* req,
                           const LineSink& protocol_error) {
    std::vector<SubmitRequest>& items = req->items;
    if (!batch) items.emplace_back().name = "<submitted>";
    bool has_spec = false;
    std::size_t payload_bytes = 0;  // summed over the request's specs

    std::string line;
    for (;;) {
      if (!in->read_line(&line)) {
        protocol_error("connection closed before 'run'");
        return false;
      }
      if (line == "run") break;
      const std::size_t sp = line.find(' ');
      const std::string word = line.substr(0, sp);
      const std::string val =
          sp == std::string::npos ? "" : line.substr(sp + 1);
      if (word == "cache") {
        if (val != "on" && val != "off") {
          protocol_error("cache must be on|off");
          return false;
        }
        req->use_cache = val == "on";
      } else if (word == "deadline-ms") {
        const auto n = wire_number(word, val, 0, LONG_MAX, protocol_error);
        if (!n) return false;
        req->deadline_ms = static_cast<long>(*n);
      } else if (batch && word == "item") {
        if (!items.empty() && !has_spec) {
          protocol_error("item '" + items.back().name +
                         "' has no spec payload");
          return false;
        }
        std::string name =
            val.empty() ? strprintf("<item %zu>", items.size()) : val;
        items.emplace_back().name = std::move(name);
        has_spec = false;
      } else if (items.empty()) {
        protocol_error(word == "spec"
                           ? "spec before the first 'item'"
                           : "header '" + word + "' before the first 'item'");
        return false;
      } else if (word == "spec") {
        const auto n =
            wire_number(word, val, 0,
                        SocketReader::kMaxPayloadBytes - payload_bytes,
                        protocol_error);
        if (!n || !read_payload(in, *n, &items.back().spec_text,
                                protocol_error))
          return false;
        payload_bytes += *n;
        has_spec = true;
      } else if (!apply_header(word, val, &items.back(), protocol_error)) {
        return false;
      }
    }
    if (items.empty()) {
      protocol_error("batch with no items");
      return false;
    }
    if (!has_spec) {
      protocol_error(batch ? "item '" + items.back().name +
                                 "' has no spec payload"
                           : "missing spec payload");
      return false;
    }
    return true;
  }

  /// Parse one per-item header line. Returns false (after reporting) on
  /// a malformed value.
  static bool apply_header(const std::string& word, const std::string& val,
                           SubmitRequest* req,
                           const LineSink& protocol_error) {
    if (word == "name") {
      req->name = val;
      return true;
    }
    if (word == "mode") {
      if (val == "rt") {
        req->mode = FlowMode::kRelativeTiming;
      } else if (val == "si") {
        req->mode = FlowMode::kSpeedIndependent;
      } else {
        protocol_error("unknown mode '" + val + "'");
        return false;
      }
      return true;
    }
    if (word == "max-states") {
      const auto n = wire_number(word, val, 1, SIZE_MAX, protocol_error);
      if (n) req->max_states = *n;
      return n.has_value();
    }
    if (word == "to") {
      if (stage_rank(val) < 0) {
        protocol_error("unknown stage '" + val + "'");
        return false;
      }
      req->stop_after = val;
      return true;
    }
    protocol_error("unknown header '" + word + "'");
    return false;
  }

  /// The value of header `word` as a whole number in [lo, hi]; empty
  /// (after reporting) on anything else.
  static std::optional<unsigned long long> wire_number(
      const std::string& word, const std::string& val, unsigned long long lo,
      unsigned long long hi, const LineSink& protocol_error) {
    const auto n = parse_whole_number(val, lo, hi);
    if (!n)
      protocol_error(strprintf("%s must be a whole number in [%llu, %llu]",
                               word.c_str(), lo, hi));
    return n;
  }

  /// Read the `n` payload bytes a "spec <n>" line framed, and the newline
  /// after them.
  static bool read_payload(SocketReader* in, std::size_t n, std::string* out,
                           const LineSink& protocol_error) {
    if (!in->read_exact(out, n)) {
      protocol_error("connection closed inside spec payload");
      return false;
    }
    std::string newline;
    if (!in->read_exact(&newline, 1) || newline != "\n") {
      protocol_error("spec payload must end with a newline");
      return false;
    }
    return true;
  }

  /// Assemble the batch item exactly like load_corpus_files would, so a
  /// submission and a file-driven batch produce identical records.
  static BatchSpec to_batch_spec(const SubmitRequest& req) {
    BatchSpec item;
    item.name = req.name;
    item.opts.mode = req.mode;
    if (req.max_states > 0) item.opts.sg.max_states = req.max_states;
    item.opts.stop_after = req.stop_after;
    try {
      item.spec = parse_stg_string(req.spec_text, req.name);
    } catch (const SpecError& e) {
      item.load_error = BatchDiagnostic{"spec", e.what()};
    } catch (const Error& e) {
      item.load_error = BatchDiagnostic{"parse", e.what()};
    }
    return item;
  }

  /// Answer a request that read cleanly. Its items run in request order,
  /// sequentially on this connection, so each takes one gate slot and
  /// the records stream back in corpus order — what the client needs to
  /// reassemble `rtflow_cli batch`'s envelope byte-identically. The verb
  /// picks only the framing lines: `accepted key=`, `cache` and streamed
  /// `stage` lines for a submission; `accepted items=` and one `item`
  /// line per item for a batch.
  void answer(int fd, bool batch, const Request& req) {
    if (batch) registry.counter("serve.batch_total").add(1);
    // From here on the client may vanish at any time; `alive` latches the
    // first failed write and cancels the request's flow.
    CancelToken token;
    if (req.deadline_ms >= 0)
      token.set_timeout(std::chrono::milliseconds(req.deadline_ms));
    bool alive = send_line(fd, serve_banner());
    const auto say = [&](const std::string& l) {
      if (alive && !send_line(fd, l)) {
        alive = false;
        token.request_cancel();  // client gone: stop burning its budget
      }
    };
    if (batch) say(strprintf("accepted items=%zu", req.items.size()));

    for (std::size_t i = 0; i < req.items.size(); ++i) {
      const BatchSpec item = to_batch_spec(req.items[i]);
      const std::string key =
          cache && !item.load_error ? cache_key(item) : std::string();
      const std::string shown = key.empty() ? "-" : key;
      if (!batch) say("accepted key=" + shown);
      const auto report = [&](const char* status) {
        say(batch ? strprintf("item %zu key=%s cache %s", i, shown.c_str(),
                              status)
                  : std::string("cache ") + status);
      };
      StageSink on_stage;
      if (!batch) on_stage = [&](const StageTrace& t) { say(stage_line(t)); };

      BatchItemResult result;
      try {
        result = serve_item(item, key, req.use_cache, &token, report,
                            on_stage);
      } catch (const Error& e) {
        // A corrupt store entry must be loud, not silently recomputed.
        say(std::string("error ") + e.what());
        return;
      }
      const std::string record = item_record_json(result);
      say(strprintf("record %zu", record.size()));
      if (alive && !send_all(fd, record.data(), record.size())) alive = false;
      say("");  // terminate the record payload line
      if (!alive) return;  // client gone: no point running the rest
    }
    say("done");
  }

  /// Serve one item: through the store (cached_item) when it has a key
  /// and the request uses the cache, else by a fresh run. `report` gets
  /// "hit", "miss" or "off" before any stage runs, which keeps the
  /// streamed wire order. Throws Error on a corrupt or foreign store
  /// entry and on a failed store.
  BatchItemResult serve_item(const BatchSpec& item, const std::string& key,
                             bool use_cache, CancelToken* token,
                             const std::function<void(const char*)>& report,
                             const StageSink& on_stage) {
    const auto started = std::chrono::steady_clock::now();
    registry.counter("serve.submit_total").add(1);
    const auto run = [&] { return run_gated(item, token, on_stage); };
    BatchItemResult result;
    if (key.empty() || !use_cache) {
      report("off");
      result = run();
    } else {
      const auto on_lookup = [&](bool hit) {
        registry.counter(hit ? "serve.cache_hit_total"
                             : "serve.cache_miss_total")
            .add(1);
        report(hit ? "hit" : "miss");
      };
      CachedItem served = cached_item(*cache, key, item.name, run, on_lookup);
      if (served.stored) {
        registry.counter("serve.cache_store_total").add(1);
        enforce_cache_cap(key);
      }
      result = std::move(served.result);
    }
    registry.histogram("serve.request_us").observe_us(us_since(started));
    return result;
  }

  /// Run one item's flow under the gate, with `token` cancelled on
  /// stop(). Every finished stage feeds the registry, then `on_stage`.
  BatchItemResult run_gated(const BatchSpec& item, CancelToken* token,
                            const StageSink& on_stage) {
    FlowContext ctx;
    ctx.budget = opts.budget;
    ctx.cancel = token;
    ctx.on_stage = [&](const StageTrace& t) {
      registry.observe_stage(t);
      if (on_stage) on_stage(t);
    };

    gate_acquire(token);
    BatchItemResult result = run_batch_item(item, ctx);
    gate_release(token);

    if (!result.ok && result.diagnostic.kind == "cancelled")
      registry.counter("serve.cancelled_total").add(1);
    return result;
  }

  /// --cache-max-bytes: LRU-prune the store back under the cap after a
  /// store, protecting the entry this request just wrote.
  void enforce_cache_cap(const std::string& just_stored_key) {
    if (opts.cache_max_bytes == 0) return;
    const ResultCache::PruneStats pruned =
        cache->prune(opts.cache_max_bytes, just_stored_key);
    registry.counter("serve.cache_evict_total")
        .add(static_cast<long long>(pruned.evicted));
  }

  void accept_loop(Listener* listener) {
    for (;;) {
      const int fd = listener->accept_connection();
      if (fd < 0) return;  // listener shut down: drain out
      std::vector<std::thread> done;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stopping) {
          close_fd(fd);
          return;
        }
        // Join the handlers that have returned: one never joined keeps its
        // stack mapped until stop().
        for (const std::thread::id id : finished) {
          const auto it = std::find_if(
              handlers.begin(), handlers.end(),
              [id](const std::thread& t) { return t.get_id() == id; });
          done.push_back(std::move(*it));
          handlers.erase(it);
        }
        finished.clear();
        open_fds.insert(fd);
        handlers.emplace_back([this, fd] {
          handle_connection(fd);
          // Untracked before it closes, so stop() never shuts down a
          // reused descriptor.
          std::lock_guard<std::mutex> lock(mu);
          open_fds.erase(fd);
          close_fd(fd);
          finished.push_back(std::this_thread::get_id());
        });
      }
      for (std::thread& t : done) t.join();
    }
  }
};

FlowService::FlowService(ServeOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

FlowService::~FlowService() { stop(); }

const std::string& FlowService::socket_path() const {
  return impl_->opts.socket_path;
}

int FlowService::tcp_port() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->bound_tcp_port;
}

MetricsRegistry& FlowService::metrics() { return impl_->registry; }

bool FlowService::running() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->started && !impl_->stopping;
}

ServeStats FlowService::stats() const { return impl_->stats(); }

void FlowService::start() {
  Impl& im = *impl_;
  RTCAD_EXPECTS(!im.started);
  const std::string& path = im.opts.socket_path;
  if (path.empty() && im.opts.tcp.empty())
    throw Error("serve: need a socket path or a TCP endpoint to listen on");

  if (!im.opts.cache_dir.empty()) im.cache.emplace(im.opts.cache_dir);
  im.flow_limit =
      std::max(1, WorkPool::effective_threads(im.opts.budget.corpus));

  // Build every configured listener before starting any acceptor, so a
  // failure leaves nothing half-running (Listener destructors release
  // the ones already bound).
  std::vector<Listener> listeners;
  if (!path.empty()) {
    // A live server on this path is a configuration error; a stale
    // socket file from a dead one is replaced.
    try {
      const int probe = connect_endpoint(Endpoint::unix_path(path));
      close_fd(probe);
      throw Error("serve: '" + path + "' is already served by a live daemon");
    } catch (const Error& e) {
      if (std::string(e.what()).find("already served") != std::string::npos)
        throw;
      // Unreachable: stale or absent; fall through and (re)bind.
    }
    ::unlink(path.c_str());
    listeners.push_back(listen_unix(path));
  }
  if (!im.opts.tcp.empty()) {
    // parse + bind both throw clean Errors (bad HOST:PORT, port in use,
    // privileged port) — the recoverable-configuration contract.
    listeners.push_back(listen_tcp(parse_tcp_endpoint(im.opts.tcp)));
  }

  {
    std::lock_guard<std::mutex> lock(im.mu);
    im.listeners = std::move(listeners);
    for (const Listener& l : im.listeners)
      if (l.tcp_port() > 0) im.bound_tcp_port = l.tcp_port();
    im.started = true;
    im.stopping = false;
  }
  for (Listener& l : im.listeners)
    im.acceptors.emplace_back([&im, pl = &l] { im.accept_loop(pl); });
}

void FlowService::stop() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (!im.started || im.stopping) {
      if (!im.started) return;
      if (im.stopping && im.acceptors.empty()) return;
    }
    im.stopping = true;
    // Cancel in-flight flows; they observe at the next round boundary.
    for (const CancelToken* t : im.active_tokens)
      const_cast<CancelToken*>(t)->request_cancel();
    // Unblock reads so handler threads can exit.
    for (const int fd : im.open_fds) ::shutdown(fd, SHUT_RDWR);
  }
  im.cv.notify_all();
  // Shutting a listener down pops its accept() out with an error.
  for (Listener& l : im.listeners) l.shutdown_and_close();
  for (std::thread& t : im.acceptors)
    if (t.joinable()) t.join();
  im.acceptors.clear();
  // No new handlers can appear now (acceptors are gone); join the rest.
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    handlers.swap(im.handlers);
  }
  for (std::thread& t : handlers)
    if (t.joinable()) t.join();
  im.listeners.clear();  // unlinks the Unix socket path
}

void FlowService::wait(const std::function<bool()>& keep_running) {
  Impl& im = *impl_;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(im.mu);
      im.cv.wait_for(lock, std::chrono::milliseconds(200), [&im] {
        return im.shutdown_requested || im.stopping;
      });
      if (im.shutdown_requested || im.stopping) break;
    }
    if (keep_running && !keep_running()) break;
  }
  stop();
}

// --- client -----------------------------------------------------------------

namespace {

/// One client exchange: dial `endpoint`, send the banner and `body`, and
/// read the server's banner back. Each step throws Error when it fails —
/// all of them transport failures; the response is then read line by
/// line.
class Exchange {
 public:
  Exchange(const Endpoint& endpoint, const std::string& body,
           const std::string& what)
      : fd_(connect_endpoint(endpoint)), in_(fd_) {
    const std::string banner = serve_banner();
    const std::string msg = banner + "\n" + body;
    if (!send_all(fd_, msg.data(), msg.size()))
      fail("connection closed while sending " + what);
    std::string line;
    if (!in_.read_line(&line) || line != banner)
      fail("server did not answer with the protocol banner");
  }
  ~Exchange() { close_fd(fd_); }
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  bool read_line(std::string* line) { return in_.read_line(line); }

  /// The payload framed by `line` ("<word> <byte-count>"), and the
  /// newline after it. Throws Error on a malformed size or a short
  /// stream.
  std::string payload(const std::string& line, const std::string& word) {
    const auto n =
        parse_whole_number(std::string_view(line).substr(word.size() + 1));
    std::string bytes;
    if (!n || !in_.read_exact(&bytes, *n))
      throw Error(n ? "truncated " + word + " payload" : "malformed " + line);
    std::string newline;
    in_.read_exact(&newline, 1);
    return bytes;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    close_fd(fd_);  // the destructor of a half-built object never runs
    throw Error(message);
  }

  int fd_;
  SocketReader in_;
};

/// A `submit` or `batch` response, read by one loop: the framing lines of
/// both verbs are told apart by their first word.
struct ItemResponse : BatchSubmitResult {
  std::string key;                       ///< submit's `accepted key=`
  std::vector<std::string> stage_lines;  ///< submit's streamed stages
};

ItemResponse exchange_items(const Endpoint& endpoint, const std::string& body,
                            const LineSink& on_line) {
  ItemResponse out;
  try {
    Exchange ex(endpoint, body, "the request");
    std::string line;
    while (ex.read_line(&line)) {
      if (on_line) on_line(line);
      if (starts_with(line, "error ")) {
        out.error = line.substr(6);
        return out;  // a served error is an answer, not a transport failure
      }
      if (starts_with(line, "accepted key=")) {
        out.key = line.substr(std::string("accepted key=").size());
      } else if (starts_with(line, "accepted items=")) {
        // informational; the stream itself carries the per-item framing
      } else if (starts_with(line, "cache ")) {
        out.cache_statuses.push_back(line.substr(6));
      } else if (starts_with(line, "item ")) {
        const std::size_t at = line.rfind(" cache ");
        out.cache_statuses.push_back(
            at == std::string::npos
                ? std::string()
                : line.substr(at + std::string(" cache ").size()));
      } else if (starts_with(line, "stage ")) {
        out.stage_lines.push_back(line.substr(6));
      } else if (starts_with(line, "record ")) {
        out.records.push_back(ex.payload(line, "record"));
      } else if (line == "done") {
        out.protocol_ok = true;
        return out;
      } else {
        out.error = "unexpected response line: " + line;
        return out;
      }
    }
    out.error = "connection closed before 'done'";
  } catch (const Error& e) {
    out.error = e.what();
  }
  out.transport_failure = true;
  return out;
}

/// Render the shared per-item header block (submit headers / batch item
/// blocks differ only in the leading verb-specific lines).
std::string item_headers(const SubmitRequest& req) {
  std::string msg;
  msg += req.mode == FlowMode::kRelativeTiming ? "mode rt\n" : "mode si\n";
  if (req.max_states > 0) msg += strprintf("max-states %zu\n", req.max_states);
  if (!req.stop_after.empty()) msg += "to " + req.stop_after + "\n";
  msg += strprintf("spec %zu\n", req.spec_text.size());
  msg += req.spec_text;
  msg += "\n";
  return msg;
}

}  // namespace

SubmitResult serve_submit(const Endpoint& endpoint, const SubmitRequest& req,
                          const LineSink& on_line) {
  std::string body = "submit\n";
  if (!req.name.empty()) body += "name " + req.name + "\n";
  if (req.deadline_ms >= 0)
    body += strprintf("deadline-ms %ld\n", req.deadline_ms);
  body += req.use_cache ? "cache on\n" : "cache off\n";
  body += item_headers(req);
  body += "run\n";
  ItemResponse res = exchange_items(endpoint, body, on_line);

  SubmitResult out;
  out.protocol_ok = res.protocol_ok;
  out.error = std::move(res.error);
  out.transport_failure = res.transport_failure;
  if (!res.cache_statuses.empty()) out.cache_status = res.cache_statuses[0];
  out.key = std::move(res.key);
  out.stage_lines = std::move(res.stage_lines);
  if (!res.records.empty()) out.record_json = std::move(res.records[0]);
  return out;
}

BatchSubmitResult serve_submit_batch(const Endpoint& endpoint,
                                     const std::vector<SubmitRequest>& items,
                                     const BatchSubmitOptions& opts,
                                     const LineSink& on_line) {
  std::string body = "batch\n";
  body += opts.use_cache ? "cache on\n" : "cache off\n";
  if (opts.deadline_ms >= 0)
    body += strprintf("deadline-ms %ld\n", opts.deadline_ms);
  for (const SubmitRequest& req : items)
    body += "item " + req.name + "\n" + item_headers(req);
  body += "run\n";
  return exchange_items(endpoint, body, on_line);
}

std::string serve_control(const Endpoint& endpoint, const std::string& verb) {
  Exchange ex(endpoint, verb + "\n", "'" + verb + "'");
  std::string line;
  if (!ex.read_line(&line))
    throw Error("connection closed before a response to '" + verb + "'");
  return line;
}

std::string serve_metrics(const Endpoint& endpoint) {
  Exchange ex(endpoint, "stats\n", "'stats'");
  std::string line;
  if (!ex.read_line(&line) || !starts_with(line, "stats "))
    throw Error("server did not answer 'stats' with a stats line");
  if (!ex.read_line(&line) || !starts_with(line, "metrics "))
    throw Error("server did not frame a metrics payload");
  return ex.payload(line, "metrics");
}

}  // namespace rtcad
