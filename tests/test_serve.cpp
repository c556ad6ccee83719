// The serving daemon, driven in-process over a real Unix-domain socket:
// submit/record byte parity with the batch engine, cache hit/miss
// behavior, byte-stable cancelled errors for per-request deadlines,
// control verbs, protocol-error containment (bounded request lines and
// request payloads included), the store's stored-name check on both
// verbs, one source for the counters, and concurrent submissions.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "flow/flow.hpp"
#include "flow/json.hpp"
#include "flow/transport.hpp"
#include "generated_stgs.hpp"
#include "stg/builders.hpp"
#include "stg/parse.hpp"

namespace rtcad {
namespace {

namespace fs = std::filesystem;

/// One live daemon per test, on a short socket path (sun_path is ~108
/// bytes, so the name stays compact), with a fresh store when asked.
class ServeTest : public ::testing::Test {
 protected:
  enum class Transport { kUnix, kTcp };

  void start(bool with_cache) { start_on(with_cache, Transport::kUnix); }
  /// TCP-only daemon on an ephemeral loopback port (no Unix listener, so
  /// these tests also prove TCP can carry the whole protocol alone).
  void start_tcp(bool with_cache) { start_on(with_cache, Transport::kTcp); }

  void start_on(bool with_cache, Transport transport) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_ = (fs::temp_directory_path() /
             (std::string("rtsv_") + std::to_string(::getpid()) + "_" +
              info->name()))
                .string();
    fs::remove_all(base_);
    fs::create_directories(base_);
    ServeOptions opts;
    if (transport == Transport::kTcp)
      opts.tcp = "127.0.0.1:0";
    else
      opts.socket_path = base_ + "/s";
    if (with_cache) opts.cache_dir = base_ + "/store";
    opts.budget.corpus = 2;
    service_ = std::make_unique<FlowService>(std::move(opts));
    service_->start();
  }
  void TearDown() override {
    if (service_) service_->stop();
    service_.reset();
    fs::remove_all(base_);
  }
  Endpoint socket() const {
    return Endpoint::unix_path(service_->socket_path());
  }
  Endpoint tcp() const {
    return Endpoint::tcp("127.0.0.1", service_->tcp_port());
  }

  std::string base_;
  std::unique_ptr<FlowService> service_;
};

SubmitRequest celement_request() {
  SubmitRequest req;
  req.name = "celement";
  req.spec_text = write_stg(celement_stg());
  req.mode = FlowMode::kSpeedIndependent;
  return req;
}

/// The batch item the daemon assembles from a submission.
BatchSpec batch_item(const SubmitRequest& req) {
  BatchSpec item;
  item.name = req.name;
  item.opts.mode = req.mode;
  if (req.max_states > 0) item.opts.sg.max_states = req.max_states;
  item.opts.stop_after = req.stop_after;
  item.spec = parse_stg_string(req.spec_text, req.name);
  return item;
}

/// The record the batch engine would emit for the same submission.
std::string reference_record(const SubmitRequest& req) {
  return item_record_json(run_batch_item(batch_item(req), {}));
}

TEST_F(ServeTest, SubmitReturnsTheExactBatchRecordBytes) {
  start(/*with_cache=*/false);
  const SubmitRequest req = celement_request();
  const SubmitResult res = serve_submit(socket(), req);
  ASSERT_TRUE(res.protocol_ok) << res.error;
  EXPECT_EQ(res.cache_status, "off");
  EXPECT_EQ(res.record_json, reference_record(req));
  EXPECT_FALSE(res.stage_lines.empty()) << "progress was streamed";
}

TEST_F(ServeTest, SecondSubmitIsACacheHitWithIdenticalBytes) {
  start(/*with_cache=*/true);
  const SubmitRequest req = celement_request();
  const SubmitResult miss = serve_submit(socket(), req);
  ASSERT_TRUE(miss.protocol_ok) << miss.error;
  EXPECT_EQ(miss.cache_status, "miss");
  EXPECT_EQ(miss.key.size(), 64u);

  const SubmitResult hit = serve_submit(socket(), req);
  ASSERT_TRUE(hit.protocol_ok) << hit.error;
  EXPECT_EQ(hit.cache_status, "hit");
  EXPECT_EQ(hit.key, miss.key);
  EXPECT_EQ(hit.record_json, miss.record_json);
  EXPECT_TRUE(hit.stage_lines.empty()) << "a hit runs no stages";

  const ServeStats stats = service_->stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 1);
}

TEST_F(ServeTest, CacheOffRequestBypassesTheStore) {
  start(/*with_cache=*/true);
  SubmitRequest req = celement_request();
  req.use_cache = false;
  const SubmitResult a = serve_submit(socket(), req);
  const SubmitResult b = serve_submit(socket(), req);
  ASSERT_TRUE(a.protocol_ok && b.protocol_ok);
  EXPECT_EQ(a.cache_status, "off");
  EXPECT_EQ(b.cache_status, "off") << "nothing was stored either";
  EXPECT_EQ(a.record_json, b.record_json);
}

TEST_F(ServeTest, ExpiredDeadlineIsAByteStableCancelledError) {
  start(/*with_cache=*/true);
  SubmitRequest req = celement_request();
  req.deadline_ms = 0;  // already expired: cancelled at the first check

  const SubmitResult a = serve_submit(socket(), req);
  ASSERT_TRUE(a.protocol_ok) << a.error;
  const BatchItemResult item = parse_item_record_json(a.record_json);
  EXPECT_FALSE(item.ok);
  EXPECT_EQ(item.diagnostic.kind, "cancelled");

  // Byte-stable: the same expired request cancels at the same point.
  const SubmitResult b = serve_submit(socket(), req);
  ASSERT_TRUE(b.protocol_ok) << b.error;
  EXPECT_EQ(b.record_json, a.record_json);
  EXPECT_GE(service_->stats().cancelled, 2);

  // Cancelled results are never memoized: the next unconstrained submit
  // is a miss, and its answer is the real one.
  SubmitRequest clean = celement_request();
  const SubmitResult after = serve_submit(socket(), clean);
  ASSERT_TRUE(after.protocol_ok) << after.error;
  EXPECT_EQ(after.cache_status, "miss");
  EXPECT_TRUE(parse_item_record_json(after.record_json).ok);
}

TEST_F(ServeTest, ParseFailureComesBackAsALoadErrorRecord) {
  start(/*with_cache=*/true);
  SubmitRequest req;
  req.name = "broken";
  req.spec_text = "this is not a .g file";
  const SubmitResult res = serve_submit(socket(), req);
  ASSERT_TRUE(res.protocol_ok) << res.error;
  EXPECT_EQ(res.key, "-") << "no spec bytes to key";
  EXPECT_EQ(res.cache_status, "off");
  const BatchItemResult item = parse_item_record_json(res.record_json);
  EXPECT_FALSE(item.ok);
  EXPECT_EQ(item.diagnostic.kind, "parse");

  // A spec that parses but fails validation (65 signals, one more than a
  // state code holds) is a spec verdict, and the daemon survives it.
  req.name = "wide65";
  req.spec_text = write_stg(wide_ring_stg(65));
  const SubmitResult wide = serve_submit(socket(), req);
  ASSERT_TRUE(wide.protocol_ok) << wide.error;
  EXPECT_EQ(wide.key, "-");
  const BatchItemResult rejected = parse_item_record_json(wide.record_json);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.diagnostic.kind, "spec");
  EXPECT_EQ(serve_control(socket(), "ping"), "pong");
}

TEST_F(ServeTest, ControlVerbsAndProtocolErrors) {
  start(/*with_cache=*/false);
  EXPECT_EQ(serve_control(socket(), "ping"), "pong");
  EXPECT_NE(serve_control(socket(), "stats").find("stats requests=0"),
            std::string::npos);

  // A bogus verb gets a contained error; the daemon survives it.
  EXPECT_NE(serve_control(socket(), "frobnicate").find("error "),
            std::string::npos);
  EXPECT_EQ(serve_control(socket(), "ping"), "pong");
  EXPECT_EQ(service_->stats().protocol_errors, 1);
  EXPECT_TRUE(service_->running());
}

/// A submit request after the banner, as raw wire lines, with one header
/// line of the caller's choosing and a framed spec whose size line reads
/// `spec <size_text>`.
std::string raw_submit(const std::string& header,
                       const std::string& size_text = "") {
  const std::string spec = write_stg(celement_stg());
  return "submit\nmode si\n" + header + "\nspec " +
         (size_text.empty() ? std::to_string(spec.size()) : size_text) +
         "\n" + spec + "\nrun";
}

/// serve_control sends its verb verbatim, so it doubles as a raw client:
/// the answer's first line after the banner comes back.
void expect_rejected(const Endpoint& socket, const std::string& request) {
  const std::string first = serve_control(socket, request);
  EXPECT_EQ(first.rfind("error ", 0), 0u) << first << " <- " << request;
}

TEST_F(ServeTest, MaxStatesHeaderMustBeAWholeNumber) {
  start(/*with_cache=*/false);
  EXPECT_EQ(serve_control(socket(), raw_submit("max-states 5"))
                .rfind("accepted ", 0),
            0u);
  for (const char* bad : {"max-states 5x", "max-states 99999999999999999999",
                          "max-states -5", "max-states +5", "max-states "})
    expect_rejected(socket(), raw_submit(bad));
  EXPECT_EQ(service_->stats().protocol_errors, 5);
  EXPECT_EQ(serve_control(socket(), "ping"), "pong");
}

TEST_F(ServeTest, DeadlineHeaderMustBeAWholeNumber) {
  start(/*with_cache=*/false);
  EXPECT_EQ(serve_control(socket(), raw_submit("deadline-ms 12"))
                .rfind("accepted ", 0),
            0u);
  expect_rejected(socket(), raw_submit("deadline-ms 12abc"));
  expect_rejected(socket(), raw_submit("deadline-ms 99999999999999999999"));
  // The whole-batch deadline goes through the same check.
  const std::string spec = write_stg(celement_stg());
  expect_rejected(socket(), "batch\ndeadline-ms 12abc\nitem c\nspec " +
                                std::to_string(spec.size()) + "\n" + spec +
                                "\nrun");
  EXPECT_EQ(service_->stats().protocol_errors, 3);
  EXPECT_EQ(serve_control(socket(), "ping"), "pong");
}

TEST_F(ServeTest, SpecSizeMustBeAWholeNumber) {
  start(/*with_cache=*/false);
  const std::size_t size = write_stg(celement_stg()).size();
  // `spec <N>xyz` must not read N bytes and go on.
  expect_rejected(socket(), raw_submit("name c", std::to_string(size) + "xyz"));
  expect_rejected(socket(), raw_submit("name c", "-" + std::to_string(size)));
  EXPECT_EQ(service_->stats().protocol_errors, 2);
  EXPECT_EQ(service_->stats().requests, 0);
  EXPECT_EQ(serve_control(socket(), "ping"), "pong");
}

TEST_F(ServeTest, OverlongRequestLineIsRejectedAndClosed) {
  // A megabyte with no newline must not grow the daemon's read buffer
  // without bound: past SocketReader::kMaxLineBytes it answers with an
  // error line and closes the connection, and it keeps serving. Without
  // the bound the daemon waits for the newline and the receive timeout
  // below expires.
  start(/*with_cache=*/false);
  const int fd = connect_endpoint(socket());
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  const std::string banner = "rtflow-serve " + std::to_string(kServeProtocol);
  ASSERT_TRUE(send_line(fd, banner));
  const std::string flood(std::size_t{1} << 20, 'x');
  send_all(fd, flood.data(), flood.size());  // fails once the daemon closes
  SocketReader in(fd);
  std::string line;
  ASSERT_TRUE(in.read_line(&line)) << "no answer within the timeout";
  EXPECT_EQ(line, banner);
  ASSERT_TRUE(in.read_line(&line)) << "no answer within the timeout";
  EXPECT_EQ(line, "error request line longer than 65536 bytes");
  ::close(fd);
  EXPECT_EQ(service_->stats().protocol_errors, 1);
  EXPECT_EQ(serve_control(socket(), "ping"), "pong");
}

/// Lines of /proc/self/maps: one per memory mapping of this process.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST_F(ServeTest, FinishedHandlersAreReaped) {
  // Each connection gets a handler thread. One that has finished must be
  // joined, not kept until stop(): an unjoined thread keeps its stack
  // mapped, so 300 sequential pings would add ~600 mappings.
  start(/*with_cache=*/false);
  ASSERT_EQ(serve_control(socket(), "ping"), "pong");
  const std::size_t before = mapping_count();
  for (int i = 0; i < 300; ++i)
    ASSERT_EQ(serve_control(socket(), "ping"), "pong");
  const std::size_t after = mapping_count();
  EXPECT_LT(after, before + 40) << before << " -> " << after << " mappings";
}

TEST_F(ServeTest, ShutdownVerbStopsTheDaemon) {
  start(/*with_cache=*/false);
  EXPECT_EQ(serve_control(socket(), "shutdown"), "bye");
  service_->wait();  // returns because a client asked for shutdown
  EXPECT_FALSE(service_->running());
}

TEST_F(ServeTest, ConcurrentSubmissionsAllGetCorrectRecords) {
  start(/*with_cache=*/true);
  const SubmitRequest req = celement_request();
  const std::string expected = reference_record(req);

  constexpr int kClients = 6;  // more clients than the corpus budget (2)
  std::vector<std::string> records(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const SubmitResult res = serve_submit(socket(), req);
      if (res.protocol_ok)
        records[static_cast<std::size_t>(i)] = res.record_json;
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& record : records) EXPECT_EQ(record, expected);
  EXPECT_EQ(service_->stats().requests, kClients);
}

// --- the TCP transport ------------------------------------------------------

TEST_F(ServeTest, TcpSubmitReturnsTheExactBatchRecordBytes) {
  start_tcp(/*with_cache=*/false);
  ASSERT_GT(service_->tcp_port(), 0) << "ephemeral port resolved";
  const SubmitRequest req = celement_request();
  const SubmitResult res = serve_submit(tcp(), req);
  ASSERT_TRUE(res.protocol_ok) << res.error;
  EXPECT_EQ(res.cache_status, "off");
  EXPECT_EQ(res.record_json, reference_record(req))
      << "the transport must not perturb a single record byte";
  EXPECT_FALSE(res.stage_lines.empty());
}

TEST_F(ServeTest, ConcurrentTcpClientsAllGetTheBatchBytes) {
  start_tcp(/*with_cache=*/true);
  const SubmitRequest req = celement_request();
  const std::string expected = reference_record(req);

  constexpr int kClients = 6;  // more clients than the corpus budget (2)
  std::vector<std::string> records(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const SubmitResult res = serve_submit(tcp(), req);
      if (res.protocol_ok)
        records[static_cast<std::size_t>(i)] = res.record_json;
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& record : records) EXPECT_EQ(record, expected);
  EXPECT_EQ(service_->stats().requests, kClients);
}

TEST(Serve, TcpBindFailureIsACleanErrorNotAnAbort) {
  ServeOptions holder;
  holder.tcp = "127.0.0.1:0";
  FlowService first{std::move(holder)};
  first.start();
  ASSERT_GT(first.tcp_port(), 0);

  // A second daemon on the SAME (now occupied) port must throw a clean
  // Error from start() and leave nothing running.
  ServeOptions clash;
  clash.tcp = "127.0.0.1:" + std::to_string(first.tcp_port());
  FlowService second{std::move(clash)};
  EXPECT_THROW(second.start(), Error);
  EXPECT_FALSE(second.running());

  // The incumbent survives the failed challenger untouched.
  EXPECT_EQ(serve_control(Endpoint::tcp("127.0.0.1", first.tcp_port()),
                          "ping"),
            "pong");
  first.stop();
}

TEST(Serve, MalformedTcpEndpointsAreLoudErrors) {
  EXPECT_THROW(parse_tcp_endpoint("no-port"), Error);
  EXPECT_THROW(parse_tcp_endpoint("host:"), Error);
  EXPECT_THROW(parse_tcp_endpoint("host:notaport"), Error);
  EXPECT_THROW(parse_tcp_endpoint("host:70000"), Error);
  EXPECT_EQ(parse_tcp_endpoint("[::1]:9000").host, "::1");
  EXPECT_EQ(parse_tcp_endpoint("127.0.0.1:0").port, 0);
  EXPECT_EQ(parse_tcp_endpoint(":8080").host, "") << "empty host is valid";
}

TEST(Serve, ConnectionRefusedIsATransportFailureNotAServedError) {
  // Bind an ephemeral port, then free it: the port is now (almost
  // certainly) refusing connections, which must surface as the
  // RETRYABLE class — transport_failure — not as a served "error".
  Listener probe = listen_tcp(Endpoint::tcp("127.0.0.1", 0));
  const int port = probe.tcp_port();
  probe.shutdown_and_close();

  SubmitRequest req;
  req.name = "unreachable";
  req.spec_text = "#";
  const SubmitResult res =
      serve_submit(Endpoint::tcp("127.0.0.1", port), req);
  EXPECT_FALSE(res.protocol_ok);
  EXPECT_TRUE(res.transport_failure);
  EXPECT_FALSE(res.error.empty());
}

// --- the batch verb ---------------------------------------------------------

/// Three distinct specs, deliberately NOT name-sorted: the records must
/// come back in submission (corpus) order, not key or name order.
std::vector<SubmitRequest> three_item_corpus() {
  std::vector<SubmitRequest> items;
  const std::pair<const char*, Stg> specs[] = {
      {"toggle", toggle_stg()},
      {"celement", celement_stg()},
      {"fifo", fifo_csc_stg()},
  };
  for (const auto& [name, stg] : specs) {
    SubmitRequest req;
    req.name = name;
    req.spec_text = write_stg(stg);
    req.mode = FlowMode::kSpeedIndependent;
    items.push_back(std::move(req));
  }
  return items;
}

TEST_F(ServeTest, BatchVerbStreamsRecordsInCorpusOrder) {
  start_tcp(/*with_cache=*/true);
  const std::vector<SubmitRequest> items = three_item_corpus();

  const BatchSubmitResult first = serve_submit_batch(tcp(), items);
  ASSERT_TRUE(first.protocol_ok) << first.error;
  ASSERT_EQ(first.records.size(), items.size());
  ASSERT_EQ(first.cache_statuses.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(first.records[i], reference_record(items[i]))
        << items[i].name << ": batch-verb bytes == rtflow_cli batch bytes";
    EXPECT_EQ(first.cache_statuses[i], "miss");
  }

  // The same corpus again: all hits, byte-identical records.
  const BatchSubmitResult again = serve_submit_batch(tcp(), items);
  ASSERT_TRUE(again.protocol_ok) << again.error;
  EXPECT_EQ(again.records, first.records);
  for (const std::string& status : again.cache_statuses)
    EXPECT_EQ(status, "hit");
  EXPECT_EQ(service_->stats().requests,
            2 * static_cast<long long>(items.size()))
      << "each batch item counts as one request";
}

TEST_F(ServeTest, EmptyBatchIsAContainedProtocolError) {
  start_tcp(/*with_cache=*/false);
  const BatchSubmitResult res = serve_submit_batch(tcp(), {});
  EXPECT_FALSE(res.protocol_ok);
  EXPECT_FALSE(res.transport_failure)
      << "a served error is an answer, not a transport failure";
  EXPECT_TRUE(res.records.empty());
  // The daemon survives the malformed batch.
  EXPECT_EQ(serve_control(tcp(), "ping"), "pong");
  EXPECT_EQ(service_->stats().protocol_errors, 1);
}

TEST_F(ServeTest, StoredEntryNamingAnotherItemIsAnErrorOnBothVerbs) {
  start(/*with_cache=*/true);
  SubmitRequest a = celement_request();
  a.name = "A";
  SubmitRequest b = celement_request();
  b.name = "B";
  // B's record under A's key: the entry's digest is valid, but it is not
  // A's answer. Both verbs share `batch --cache`'s refusal.
  const ResultCache store(base_ + "/store");
  const std::string key = cache_key(batch_item(a));
  store.store(key, run_batch_item(batch_item(b), {}));
  const std::string want = "cache entry '" + store.entry_path(key) +
                           "': stored name 'B' does not match item 'A'";

  const SubmitResult one = serve_submit(socket(), a);
  EXPECT_FALSE(one.protocol_ok);
  EXPECT_FALSE(one.transport_failure) << "a served error is an answer";
  EXPECT_EQ(one.key, key);
  EXPECT_EQ(one.error, want);
  EXPECT_TRUE(one.record_json.empty());

  const BatchSubmitResult many = serve_submit_batch(socket(), {a});
  EXPECT_FALSE(many.protocol_ok);
  EXPECT_FALSE(many.transport_failure);
  EXPECT_EQ(many.error, want);
  EXPECT_TRUE(many.records.empty());
  EXPECT_EQ(serve_control(socket(), "ping"), "pong");
}

TEST_F(ServeTest, OneRequestsPayloadsShareOneCap) {
  // Each spec fits the cap alone, but one request's payloads are capped
  // as a sum: the second size line is refused before its payload is
  // read. The payload is never sent, so an answer within the timeout
  // proves the daemon did not wait for it.
  start(/*with_cache=*/false);
  const std::size_t size = std::size_t{9} << 20;
  ASSERT_LT(size, SocketReader::kMaxPayloadBytes);
  const int fd = connect_endpoint(socket());
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  const std::string banner = "rtflow-serve " + std::to_string(kServeProtocol);
  const std::string request = banner + "\nbatch\nitem a\nspec " +
                              std::to_string(size) + "\n" +
                              std::string(size, 'x') + "\nitem b\nspec " +
                              std::to_string(size) + "\n";
  ASSERT_TRUE(send_all(fd, request.data(), request.size()));
  SocketReader in(fd);
  std::string line;
  ASSERT_TRUE(in.read_line(&line)) << "no answer within the timeout";
  EXPECT_EQ(line, banner);
  ASSERT_TRUE(in.read_line(&line)) << "no answer within the timeout";
  EXPECT_EQ(line, "error spec must be a whole number in [0, " +
                      std::to_string(SocketReader::kMaxPayloadBytes - size) +
                      "]");
  ::close(fd);
  EXPECT_EQ(service_->stats().protocol_errors, 1);
  EXPECT_EQ(service_->stats().requests, 0);
  EXPECT_EQ(serve_control(socket(), "ping"), "pong");

  // A whole corpus stays far under the cap and runs.
  std::vector<SubmitRequest> corpus;
  for (const BatchSpec& item : builtin_corpus()) {
    SubmitRequest req;
    req.name = item.name;
    req.spec_text = write_stg(item.spec);
    req.mode = item.opts.mode;
    corpus.push_back(std::move(req));
  }
  const BatchSubmitResult res = serve_submit_batch(socket(), corpus);
  ASSERT_TRUE(res.protocol_ok) << res.error;
  ASSERT_EQ(res.records.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(res.records[i], reference_record(corpus[i])) << corpus[i].name;
}

// --- the metrics surface ----------------------------------------------------

/// Drive an identical workload on a fresh daemon and return its metrics
/// snapshot. Two calls must agree on SHAPE (instrument names, bucket
/// bounds, array lengths) and on every deterministic value (counters,
/// settled gauges, histogram observation counts) — only wall-clock
/// derived values (sums, per-bucket spreads) may differ.
std::string metrics_after_identical_workload(const std::string& base) {
  fs::remove_all(base);
  fs::create_directories(base);
  ServeOptions opts;
  opts.tcp = "127.0.0.1:0";
  opts.cache_dir = base + "/store";
  opts.budget.corpus = 2;
  FlowService svc{std::move(opts)};
  svc.start();
  const Endpoint ep = Endpoint::tcp("127.0.0.1", svc.tcp_port());

  const BatchSubmitResult batch = serve_submit_batch(ep, three_item_corpus());
  EXPECT_TRUE(batch.protocol_ok) << batch.error;
  const SubmitResult hit = serve_submit(ep, [] {
    SubmitRequest req = three_item_corpus()[1];  // celement again: a hit
    return req;
  }());
  EXPECT_TRUE(hit.protocol_ok) << hit.error;
  EXPECT_EQ(hit.cache_status, "hit");

  const std::string json = serve_metrics(ep);
  svc.stop();
  fs::remove_all(base);
  return json;
}

TEST(ServeMetrics, SchemaAndDeterministicValuesAreStableAcrossRuns) {
  const std::string base =
      (fs::temp_directory_path() /
       (std::string("rtsv_metrics_") + std::to_string(::getpid())))
          .string();
  const Json a = parse_json(metrics_after_identical_workload(base + "_a"),
                            "metrics a");
  const Json b = parse_json(metrics_after_identical_workload(base + "_b"),
                            "metrics b");

  EXPECT_EQ(json_require_int(a, "schema", "metrics"), 1);
  EXPECT_EQ(json_require_string(a, "kind", "metrics"), "metrics");

  // Counters are pure event counts of a deterministic workload: names
  // AND values must match between the two runs.
  const Json& ca = json_require(a, "counters", "metrics");
  const Json& cb = json_require(b, "counters", "metrics");
  ASSERT_EQ(ca.obj.size(), cb.obj.size());
  for (std::size_t i = 0; i < ca.obj.size(); ++i) {
    EXPECT_EQ(ca.obj[i].first, cb.obj[i].first);
    EXPECT_EQ(ca.obj[i].second.number, cb.obj[i].second.number)
        << "counter " << ca.obj[i].first;
  }
  EXPECT_GT(json_require_int(ca, "serve.submit_total", "metrics"), 0);
  EXPECT_GT(json_require_int(ca, "serve.batch_total", "metrics"), 0);
  EXPECT_GT(json_require_int(ca, "serve.cache_hit_total", "metrics"), 0);

  // Gauges have settled (no active flows) by snapshot time.
  const Json& ga = json_require(a, "gauges", "metrics");
  EXPECT_EQ(json_require_int(ga, "serve.active_flows", "metrics"), 0);

  // Histograms: same names, the one fixed bucket ladder, 18 counts, and
  // the same number of observations; sums are wall clock and may differ.
  const Json& ha = json_require(a, "histograms", "metrics");
  const Json& hb = json_require(b, "histograms", "metrics");
  ASSERT_EQ(ha.obj.size(), hb.obj.size());
  ASSERT_FALSE(ha.obj.empty());
  bool saw_stage_histogram = false;
  for (std::size_t i = 0; i < ha.obj.size(); ++i) {
    const std::string& name = ha.obj[i].first;
    EXPECT_EQ(name, hb.obj[i].first);
    const Json& ea = ha.obj[i].second;
    const Json& eb = hb.obj[i].second;
    const Json& bounds = json_require(ea, "bounds_us", "metrics");
    ASSERT_EQ(bounds.arr.size(), Histogram::bucket_bounds_us().size());
    for (std::size_t k = 0; k < bounds.arr.size(); ++k)
      EXPECT_EQ(static_cast<long long>(bounds.arr[k].number),
                Histogram::bucket_bounds_us()[k]);
    EXPECT_EQ(json_require(ea, "counts", "metrics").arr.size(),
              bounds.arr.size() + 1);
    EXPECT_EQ(json_require_int(ea, "count", "metrics"),
              json_require_int(eb, "count", "metrics"))
        << "observation count of " << name;
    if (name.rfind("stage_us.", 0) == 0) saw_stage_histogram = true;
  }
  EXPECT_TRUE(saw_stage_histogram)
      << "per-stage latency histograms exist after a batch-verb corpus";
}

TEST_F(ServeTest, ExtendedStatsKeepsTheLegacyFirstLine) {
  start_tcp(/*with_cache=*/true);
  const SubmitResult res = serve_submit(tcp(), celement_request());
  ASSERT_TRUE(res.protocol_ok) << res.error;

  // serve_control reads only the first response line — the legacy
  // summary — so older clients keep working; the framed JSON rides
  // behind it for serve_metrics.
  const std::string first = serve_control(tcp(), "stats");
  EXPECT_NE(first.find("stats requests=1"), std::string::npos) << first;
  EXPECT_NE(first.find("evicted=0"), std::string::npos) << first;

  const Json snapshot = parse_json(serve_metrics(tcp()), "metrics");
  const Json& counters = json_require(snapshot, "counters", "metrics");
  EXPECT_EQ(json_require_int(counters, "serve.submit_total", "metrics"), 1);
}

/// Counter `name` of a metrics snapshot; 0 when it was never created.
long long snapshot_counter(const Json& snapshot, const std::string& name) {
  const Json* c = json_require(snapshot, "counters", "metrics").find(name);
  return c ? static_cast<long long>(c->number) : 0;
}

TEST_F(ServeTest, CountersHaveOneSource) {
  start(/*with_cache=*/true);
  // Reading the tally creates no instrument: "stats" on a fresh daemon
  // leaves the snapshot empty.
  serve_control(socket(), "stats");
  const Json fresh = parse_json(serve_metrics(socket()), "metrics");
  EXPECT_TRUE(json_require(fresh, "counters", "metrics").obj.empty());
  EXPECT_TRUE(json_require(fresh, "gauges", "metrics").obj.empty());

  // A miss, a hit, a cancellation (a miss too) and a protocol error.
  const SubmitRequest req = celement_request();
  EXPECT_EQ(serve_submit(socket(), req).cache_status, "miss");
  EXPECT_EQ(serve_submit(socket(), req).cache_status, "hit");
  SubmitRequest expired = req;
  expired.name = "expired";
  expired.deadline_ms = 0;
  EXPECT_EQ(serve_submit(socket(), expired).cache_status, "miss");
  expect_rejected(socket(), "frobnicate");

  const ServeStats s = service_->stats();
  EXPECT_EQ(s.requests, 3);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.cache_misses, 2);
  EXPECT_EQ(s.cancelled, 1);
  EXPECT_EQ(s.protocol_errors, 1);
  EXPECT_EQ(s.evicted, 0);
  EXPECT_EQ(serve_control(socket(), "stats"),
            "stats requests=" + std::to_string(s.requests) +
                " cache_hits=" + std::to_string(s.cache_hits) +
                " cache_misses=" + std::to_string(s.cache_misses) +
                " cancelled=" + std::to_string(s.cancelled) +
                " protocol_errors=" + std::to_string(s.protocol_errors) +
                " active=0 evicted=" + std::to_string(s.evicted));
  const Json snapshot = parse_json(serve_metrics(socket()), "metrics");
  EXPECT_EQ(snapshot_counter(snapshot, "serve.submit_total"), s.requests);
  EXPECT_EQ(snapshot_counter(snapshot, "serve.cache_hit_total"),
            s.cache_hits);
  EXPECT_EQ(snapshot_counter(snapshot, "serve.cache_miss_total"),
            s.cache_misses);
  EXPECT_EQ(snapshot_counter(snapshot, "serve.cancelled_total"), s.cancelled);
  EXPECT_EQ(snapshot_counter(snapshot, "serve.protocol_error_total"),
            s.protocol_errors);
  EXPECT_EQ(snapshot_counter(snapshot, "serve.cache_evict_total"), s.evicted);
}

TEST(Serve, StartRefusesALiveSocketAndReplacesAStaleOne) {
  const std::string base =
      (fs::temp_directory_path() /
       (std::string("rtsv_stale_") + std::to_string(::getpid())))
          .string();
  fs::remove_all(base);
  fs::create_directories(base);
  ServeOptions opts;
  opts.socket_path = base + "/s";

  FlowService first{ServeOptions{opts}};
  first.start();
  // A second daemon on the same live path must refuse.
  FlowService second{ServeOptions{opts}};
  EXPECT_THROW(second.start(), Error);
  first.stop();

  // After a stop (or crash) the socket file is stale; binding succeeds.
  FlowService third{ServeOptions{opts}};
  third.start();
  EXPECT_EQ(serve_control(Endpoint::unix_path(third.socket_path()), "ping"),
            "pong");
  third.stop();
  fs::remove_all(base);
}

}  // namespace
}  // namespace rtcad
