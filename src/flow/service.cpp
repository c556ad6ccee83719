#include "flow/service.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <cstring>
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

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
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
  ServeStats stat;

  // --- gate: at most `flow_limit` concurrent pipeline runs ---------------
  void gate_acquire() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return active_flows < flow_limit || stopping; });
    ++active_flows;
    registry.gauge("serve.active_flows").set(active_flows);
  }
  void gate_release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      --active_flows;
      registry.gauge("serve.active_flows").set(active_flows);
    }
    cv.notify_all();
  }

  void track_token(const CancelToken* t, bool add) {
    std::lock_guard<std::mutex> lock(mu);
    if (add)
      active_tokens.insert(t);
    else
      active_tokens.erase(t);
  }

  void bump(long long ServeStats::* field) {
    std::lock_guard<std::mutex> lock(mu);
    stat.*field += 1;
  }

  // --- request handling ---------------------------------------------------

  void handle_connection(int fd) {
    SocketReader in(fd);
    std::string line;
    const std::string banner = strprintf("rtflow-serve %d", kServeProtocol);

    // Every handler answers a failed read_line() with protocol_error()
    // and returns, which closes the connection; an over-long line is
    // reported as what it is.
    const auto protocol_error = [&](const std::string& message) {
      bump(&ServeStats::protocol_errors);
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
      std::string summary;
      {
        std::lock_guard<std::mutex> lock(mu);
        summary = strprintf("stats requests=%lld cache_hits=%lld "
                            "cache_misses=%lld cancelled=%lld "
                            "protocol_errors=%lld active=%d evicted=%lld",
                            stat.requests, stat.cache_hits,
                            stat.cache_misses, stat.cancelled,
                            stat.protocol_errors, active_flows,
                            stat.evicted);
      }
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
    if (line == "submit") {
      handle_submit(fd, &in, protocol_error);
      return;
    }
    if (line == "batch") {
      handle_batch(fd, &in, protocol_error);
      return;
    }
    protocol_error("unknown verb '" + line + "'");
  }

  /// Parse one item header line shared by submit and batch blocks.
  /// Returns false (after reporting) on a malformed value.
  bool apply_header(
      const std::string& word, const std::string& val, SubmitRequest* req,
      const std::function<void(const std::string&)>& protocol_error) {
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
      unsigned long long hi,
      const std::function<void(const std::string&)>& protocol_error) {
    const auto n = parse_whole_number(val, lo, hi);
    if (!n)
      protocol_error(strprintf("%s must be a whole number in [%llu, %llu]",
                               word.c_str(), lo, hi));
    return n;
  }

  /// Read a framed "spec <N>\n<bytes>\n" payload into req->spec_text.
  bool read_spec_payload(
      SocketReader* in, const std::string& val, SubmitRequest* req,
      const std::function<void(const std::string&)>& protocol_error) {
    const auto n = wire_number("spec", val, 0, opts.max_spec_bytes,
                               protocol_error);
    if (!n) return false;
    if (!in->read_exact(&req->spec_text, *n)) {
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

  /// Run one assembled item under the gate with serve bookkeeping:
  /// deadline/disconnect token already configured by the caller, cache
  /// consulted/populated, counters fed. `emit_status` fires with
  /// "hit"/"miss"/"off" as soon as the lookup decides — BEFORE any
  /// stage runs, preserving the streamed wire order — and `say` is the
  /// caller's write-or-cancel sink for hard errors. Returns false on a
  /// hard (connection-terminating) error.
  bool run_item(const BatchSpec& item, const std::string& key,
                bool use_cache, CancelToken* token,
                const std::function<void(const std::string&)>& say,
                const std::function<void(const std::string&)>& emit_status,
                const std::function<void(const StageTrace&)>& on_stage,
                BatchItemResult* result) {
    const bool cacheable = !key.empty();
    const auto started = std::chrono::steady_clock::now();

    bump(&ServeStats::requests);
    registry.counter("serve.submit_total").add(1);

    if (cacheable && use_cache) {
      std::optional<BatchItemResult> hit;
      try {
        hit = cache->lookup(key);
      } catch (const Error& e) {
        // A corrupt store entry must be loud, not silently recomputed.
        say(std::string("error ") + e.what());
        return false;
      }
      if (hit) {
        bump(&ServeStats::cache_hits);
        registry.counter("serve.cache_hit_total").add(1);
        emit_status("hit");
        *result = std::move(*hit);
        registry.histogram("serve.request_us").observe_us(us_since(started));
        return true;
      }
    }

    const std::string status = cacheable && use_cache ? "miss" : "off";
    if (status == "miss") {
      bump(&ServeStats::cache_misses);
      registry.counter("serve.cache_miss_total").add(1);
    }
    emit_status(status);

    FlowContext ctx;
    ctx.budget = opts.budget;
    ctx.cancel = token;
    ctx.metrics = &registry;
    ctx.on_stage = on_stage;

    track_token(token, true);
    gate_acquire();
    {
      std::lock_guard<std::mutex> lock(mu);
      if (stopping) token->request_cancel();
    }
    *result = run_batch_item(item, ctx);
    gate_release();
    track_token(token, false);

    const bool was_cancelled =
        !result->ok && result->diagnostic.kind == "cancelled";
    if (was_cancelled) {
      bump(&ServeStats::cancelled);
      registry.counter("serve.cancelled_total").add(1);
    }
    // Populate the store — never with cancellation noise.
    if (status == "miss" && !was_cancelled) {
      try {
        cache->store(key, *result);
        registry.counter("serve.cache_store_total").add(1);
        enforce_cache_cap(key);
      } catch (const Error& e) {
        say(std::string("error ") + e.what());
        return false;
      }
    }
    registry.histogram("serve.request_us").observe_us(us_since(started));
    return true;
  }

  /// --cache-max-bytes: LRU-prune the store back under the cap after a
  /// store, protecting the entry this request just wrote.
  void enforce_cache_cap(const std::string& just_stored_key) {
    if (opts.cache_max_bytes == 0 || !cache) return;
    const ResultCache::PruneStats pruned =
        cache->prune(opts.cache_max_bytes, just_stored_key);
    if (pruned.evicted > 0) {
      std::lock_guard<std::mutex> lock(mu);
      stat.evicted += static_cast<long long>(pruned.evicted);
    }
    registry.counter("serve.cache_evict_total")
        .add(static_cast<long long>(pruned.evicted));
  }

  void handle_submit(
      int fd, SocketReader* in,
      const std::function<void(const std::string&)>& protocol_error) {
    SubmitRequest req;
    req.name = "<submitted>";
    bool have_spec = false;

    std::string line;
    for (;;) {
      if (!in->read_line(&line)) {
        protocol_error("connection closed before 'run'");
        return;
      }
      if (line == "run") break;
      const std::size_t sp = line.find(' ');
      const std::string word = line.substr(0, sp);
      const std::string val =
          sp == std::string::npos ? "" : line.substr(sp + 1);
      if (word == "deadline-ms") {
        const auto n = wire_number(word, val, 0, LONG_MAX, protocol_error);
        if (!n) return;
        req.deadline_ms = static_cast<long>(*n);
      } else if (word == "cache") {
        if (val != "on" && val != "off") {
          protocol_error("cache must be on|off");
          return;
        }
        req.use_cache = val == "on";
      } else if (word == "spec") {
        if (!read_spec_payload(in, val, &req, protocol_error)) return;
        have_spec = true;
      } else {
        if (!apply_header(word, val, &req, protocol_error)) return;
      }
    }
    if (!have_spec) {
      protocol_error("missing spec payload");
      return;
    }

    const BatchSpec item = to_batch_spec(req);

    const std::string banner = strprintf("rtflow-serve %d", kServeProtocol);
    // From here on the client may vanish at any time; `alive` latches the
    // first failed write and cancels the request's flow.
    CancelToken token;
    bool alive = send_line(fd, banner);
    const auto say = [&](const std::string& l) {
      if (alive && !send_line(fd, l)) {
        alive = false;
        token.request_cancel();  // client gone: stop burning its budget
      }
    };

    const bool cacheable = cache.has_value() && !item.load_error;
    const std::string key = cacheable ? cache_key(item) : std::string();
    say("accepted key=" + (key.empty() ? "-" : key));

    if (req.deadline_ms >= 0)
      token.set_timeout(std::chrono::milliseconds(req.deadline_ms));

    BatchItemResult result;
    if (!run_item(item, key, req.use_cache, &token, say,
                  [&](const std::string& s) { say("cache " + s); },
                  [&](const StageTrace& t) { say(stage_line(t)); }, &result))
      return;

    const std::string record = item_record_json(result);
    say(strprintf("record %zu", record.size()));
    if (alive && !send_all(fd, record.data(), record.size())) alive = false;
    say("");  // terminate the record payload line
    say("done");
  }

  void handle_batch(
      int fd, SocketReader* in,
      const std::function<void(const std::string&)>& protocol_error) {
    bool use_cache = true;
    long deadline_ms = -1;
    std::vector<SubmitRequest> items;
    bool current_has_spec = false;

    std::string line;
    for (;;) {
      if (!in->read_line(&line)) {
        protocol_error("connection closed before 'run'");
        return;
      }
      if (line == "run") break;
      const std::size_t sp = line.find(' ');
      const std::string word = line.substr(0, sp);
      const std::string val =
          sp == std::string::npos ? "" : line.substr(sp + 1);
      if (word == "cache") {
        if (val != "on" && val != "off") {
          protocol_error("cache must be on|off");
          return;
        }
        use_cache = val == "on";
      } else if (word == "deadline-ms") {
        const auto n = wire_number(word, val, 0, LONG_MAX, protocol_error);
        if (!n) return;
        deadline_ms = static_cast<long>(*n);
      } else if (word == "item") {
        if (!items.empty() && !current_has_spec) {
          protocol_error("item '" + items.back().name +
                         "' has no spec payload");
          return;
        }
        SubmitRequest req;
        req.name = val.empty() ? strprintf("<item %zu>", items.size()) : val;
        items.push_back(std::move(req));
        current_has_spec = false;
      } else if (word == "spec") {
        if (items.empty()) {
          protocol_error("spec before the first 'item'");
          return;
        }
        if (!read_spec_payload(in, val, &items.back(), protocol_error))
          return;
        current_has_spec = true;
      } else {
        if (items.empty()) {
          protocol_error("header '" + word + "' before the first 'item'");
          return;
        }
        if (!apply_header(word, val, &items.back(), protocol_error)) return;
      }
    }
    if (items.empty()) {
      protocol_error("batch with no items");
      return;
    }
    if (!current_has_spec) {
      protocol_error("item '" + items.back().name + "' has no spec payload");
      return;
    }

    registry.counter("serve.batch_total").add(1);

    const std::string banner = strprintf("rtflow-serve %d", kServeProtocol);
    CancelToken token;
    if (deadline_ms >= 0)
      token.set_timeout(std::chrono::milliseconds(deadline_ms));
    bool alive = send_line(fd, banner);
    const auto say = [&](const std::string& l) {
      if (alive && !send_line(fd, l)) {
        alive = false;
        token.request_cancel();
      }
    };

    say(strprintf("accepted items=%zu", items.size()));

    // Corpus order, sequential on this connection: each item takes one
    // gate slot, so concurrent batch connections still respect the
    // ThreadBudget gate, and the stream arrives in submission order —
    // the property the client needs to reassemble `rtflow_cli batch`'s
    // envelope byte-identically.
    for (std::size_t i = 0; i < items.size(); ++i) {
      const BatchSpec item = to_batch_spec(items[i]);
      const bool cacheable = cache.has_value() && !item.load_error;
      const std::string key = cacheable ? cache_key(item) : std::string();

      BatchItemResult result;
      if (!run_item(item, key, use_cache, &token, say,
                    [&](const std::string& s) {
                      say(strprintf("item %zu key=%s cache %s", i,
                                    key.empty() ? "-" : key.c_str(),
                                    s.c_str()));
                    },
                    nullptr, &result))
        return;

      const std::string record = item_record_json(result);
      say(strprintf("record %zu", record.size()));
      if (alive && !send_all(fd, record.data(), record.size())) alive = false;
      say("");
      if (!alive) return;  // client gone: no point running the rest
    }
    say("done");
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

ServeStats FlowService::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stat;
}

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

SubmitResult serve_submit(
    const Endpoint& endpoint, const SubmitRequest& req,
    const std::function<void(const std::string& line)>& on_line) {
  SubmitResult out;
  int fd = -1;
  try {
    fd = connect_endpoint(endpoint);
  } catch (const Error& e) {
    out.error = e.what();
    out.transport_failure = true;
    return out;
  }
  const std::string banner = strprintf("rtflow-serve %d", kServeProtocol);

  std::string msg;
  msg += banner + "\n";
  msg += "submit\n";
  if (!req.name.empty()) msg += "name " + req.name + "\n";
  if (req.deadline_ms >= 0)
    msg += strprintf("deadline-ms %ld\n", req.deadline_ms);
  msg += req.use_cache ? "cache on\n" : "cache off\n";
  msg += item_headers(req);
  msg += "run\n";
  if (!send_all(fd, msg.data(), msg.size())) {
    close_fd(fd);
    out.error = "connection closed while sending the request";
    out.transport_failure = true;
    return out;
  }

  SocketReader in(fd);
  std::string line;
  if (!in.read_line(&line) || line != banner) {
    close_fd(fd);
    out.error = "server did not answer with the protocol banner";
    out.transport_failure = true;
    return out;
  }
  while (in.read_line(&line)) {
    if (on_line) on_line(line);
    if (starts_with(line, "error ")) {
      out.error = line.substr(6);
      break;
    }
    if (starts_with(line, "accepted key=")) {
      out.key = line.substr(std::string("accepted key=").size());
    } else if (starts_with(line, "cache ")) {
      out.cache_status = line.substr(6);
    } else if (starts_with(line, "stage ")) {
      out.stage_lines.push_back(line.substr(6));
    } else if (starts_with(line, "record ")) {
      const auto n = parse_whole_number(std::string_view(line).substr(7));
      if (!n || !in.read_exact(&out.record_json, *n)) {
        out.error = n ? "truncated record payload" : "malformed " + line;
        out.transport_failure = true;
        break;
      }
      std::string newline;
      in.read_exact(&newline, 1);  // payload-terminating newline
    } else if (line == "done") {
      out.protocol_ok = true;
      break;
    } else {
      out.error = "unexpected response line: " + line;
      break;
    }
  }
  if (!out.protocol_ok && out.error.empty()) {
    out.error = "connection closed before 'done'";
    out.transport_failure = true;
  }
  close_fd(fd);
  return out;
}

SubmitResult serve_submit(
    const std::string& socket_path, const SubmitRequest& req,
    const std::function<void(const std::string& line)>& on_line) {
  return serve_submit(Endpoint::unix_path(socket_path), req, on_line);
}

BatchSubmitResult serve_submit_batch(
    const Endpoint& endpoint, const std::vector<SubmitRequest>& items,
    const BatchSubmitOptions& opts,
    const std::function<void(const std::string& line)>& on_line) {
  BatchSubmitResult out;
  int fd = -1;
  try {
    fd = connect_endpoint(endpoint);
  } catch (const Error& e) {
    out.error = e.what();
    out.transport_failure = true;
    return out;
  }
  const std::string banner = strprintf("rtflow-serve %d", kServeProtocol);

  std::string msg;
  msg += banner + "\n";
  msg += "batch\n";
  msg += opts.use_cache ? "cache on\n" : "cache off\n";
  if (opts.deadline_ms >= 0)
    msg += strprintf("deadline-ms %ld\n", opts.deadline_ms);
  for (const SubmitRequest& req : items) {
    msg += "item " + req.name + "\n";
    msg += item_headers(req);
  }
  msg += "run\n";
  if (!send_all(fd, msg.data(), msg.size())) {
    close_fd(fd);
    out.error = "connection closed while sending the request";
    out.transport_failure = true;
    return out;
  }

  SocketReader in(fd);
  std::string line;
  if (!in.read_line(&line) || line != banner) {
    close_fd(fd);
    out.error = "server did not answer with the protocol banner";
    out.transport_failure = true;
    return out;
  }
  while (in.read_line(&line)) {
    if (on_line) on_line(line);
    if (starts_with(line, "error ")) {
      out.error = line.substr(6);
      break;
    }
    if (starts_with(line, "accepted items=")) {
      // informational; the stream itself carries the per-item framing
    } else if (starts_with(line, "item ")) {
      const std::size_t cache_pos = line.rfind(" cache ");
      out.cache_statuses.push_back(
          cache_pos == std::string::npos
              ? std::string()
              : line.substr(cache_pos + std::string(" cache ").size()));
    } else if (starts_with(line, "record ")) {
      const auto n = parse_whole_number(std::string_view(line).substr(7));
      std::string record;
      if (!n || !in.read_exact(&record, *n)) {
        out.error = n ? "truncated record payload" : "malformed " + line;
        out.transport_failure = true;
        break;
      }
      std::string newline;
      in.read_exact(&newline, 1);
      out.records.push_back(std::move(record));
    } else if (line == "done") {
      out.protocol_ok = true;
      break;
    } else {
      out.error = "unexpected response line: " + line;
      break;
    }
  }
  if (!out.protocol_ok && out.error.empty()) {
    out.error = "connection closed before 'done'";
    out.transport_failure = true;
  }
  close_fd(fd);
  return out;
}

std::string serve_control(const Endpoint& endpoint, const std::string& verb) {
  const int fd = connect_endpoint(endpoint);
  const std::string banner = strprintf("rtflow-serve %d", kServeProtocol);
  const std::string msg = banner + "\n" + verb + "\n";
  if (!send_all(fd, msg.data(), msg.size())) {
    close_fd(fd);
    throw Error("connection closed while sending '" + verb + "'");
  }
  SocketReader in(fd);
  std::string line;
  if (!in.read_line(&line) || line != banner) {
    close_fd(fd);
    throw Error("server did not answer with the protocol banner");
  }
  if (!in.read_line(&line)) {
    close_fd(fd);
    throw Error("connection closed before a response to '" + verb + "'");
  }
  close_fd(fd);
  return line;
}

std::string serve_control(const std::string& socket_path,
                          const std::string& verb) {
  return serve_control(Endpoint::unix_path(socket_path), verb);
}

std::string serve_metrics(const Endpoint& endpoint) {
  const int fd = connect_endpoint(endpoint);
  const std::string banner = strprintf("rtflow-serve %d", kServeProtocol);
  const std::string msg = banner + "\nstats\n";
  if (!send_all(fd, msg.data(), msg.size())) {
    close_fd(fd);
    throw Error("connection closed while sending 'stats'");
  }
  SocketReader in(fd);
  std::string line;
  if (!in.read_line(&line) || line != banner) {
    close_fd(fd);
    throw Error("server did not answer with the protocol banner");
  }
  if (!in.read_line(&line) || !starts_with(line, "stats ")) {
    close_fd(fd);
    throw Error("server did not answer 'stats' with a stats line");
  }
  if (!in.read_line(&line) || !starts_with(line, "metrics ")) {
    close_fd(fd);
    throw Error("server did not frame a metrics payload");
  }
  const auto n = parse_whole_number(std::string_view(line).substr(8));
  std::string payload;
  if (!n || !in.read_exact(&payload, *n)) {
    close_fd(fd);
    throw Error(n ? "truncated metrics payload" : "malformed " + line);
  }
  close_fd(fd);
  return payload;
}

}  // namespace rtcad
