// The serve supervisor (--isolate=process): the respawn-backoff schedule,
// crash-correlation quarantine bookkeeping, the worker wire round trip
// (render_request / split_response_line), the deterministic shed-retry
// jitter, and — on POSIX — the live containment guarantees: a SIGKILLed
// worker degrades exactly its own request (SSN-E069), a drain stays bounded
// even when the in-flight worker is a non-cooperative hang, and (under the
// fault-injection preset) the watchdog and quarantine close the loop with
// SSN-E068/E070. See docs/SERVING.md's process-isolation section.
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "support/faultinject.hpp"

#if !defined(_WIN32)
#include "support/subprocess.hpp"

#include <csignal>
#include <sys/types.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace ssnkit;
using serve::CrashCorrelation;
using serve::Supervisor;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

class ResponseCollector {
 public:
  serve::ResponseSink sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
      cv_.notify_all();
    };
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_.size();
  }
  std::vector<std::string> await(std::size_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::seconds(60),
                 [&] { return lines_.size() >= count; });
    return lines_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

int count_lines_with(const std::vector<std::string>& lines,
                     const std::string& needle) {
  int n = 0;
  for (const auto& line : lines)
    if (line.find(needle) != std::string::npos) ++n;
  return n;
}

serve::ServerConfig process_config(int workers) {
  serve::ServerConfig config;
  config.threads = 2;
  config.queue_capacity = 64;
  config.cache_capacity = 64;
  config.isolate = serve::IsolateMode::kProcess;
  config.supervisor.workers = workers;
  return config;
}

// --- backoff schedule --------------------------------------------------------

TEST(SupervisorBackoff, ExponentialScheduleIsCapped) {
  // 25 ms doubling per consecutive crash, capped at 2 s.
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(1), 25.0);
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(2), 50.0);
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(3), 100.0);
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(4), 200.0);
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(7), 1600.0);
  // 25 * 2^7 = 3200 crosses the cap.
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(8), 2000.0);
  // A long crash loop must not overflow past the cap.
  EXPECT_DOUBLE_EQ(Supervisor::restart_backoff_ms(500), 2000.0);
}

// --- crash correlation -------------------------------------------------------

TEST(CrashCorrelation, QuarantinesOnTheNthDeathAndJournalsTheLine) {
  const std::string journal = temp_path("quarantine_unit.jsonl");
  std::remove(journal.c_str());
  const std::string line = R"({"id":"poison","cmd":"estimate","n":13})";
  CrashCorrelation cc(2, journal);
  EXPECT_FALSE(cc.quarantined(13));
  EXPECT_EQ(cc.record(13, line), 1);
  EXPECT_FALSE(cc.quarantined(13)) << "N-1 deaths must still retry";
  EXPECT_EQ(cc.quarantined_keys(), 0u);
  EXPECT_EQ(cc.record(13, line), 2);
  EXPECT_TRUE(cc.quarantined(13)) << "the Nth death trips the threshold";
  EXPECT_EQ(cc.quarantined_keys(), 1u);
  EXPECT_FALSE(cc.quarantined(14)) << "other keys are unaffected";
  // The journaled line is the raw request, directly replayable.
  std::ifstream in(journal);
  std::string journaled;
  ASSERT_TRUE(std::getline(in, journaled));
  EXPECT_EQ(journaled, line);
  // Deaths past the threshold do not journal the line again.
  EXPECT_EQ(cc.record(13, line), 3);
  std::string extra;
  std::ifstream in2(journal);
  int rows = 0;
  while (std::getline(in2, extra)) ++rows;
  EXPECT_EQ(rows, 1);
  std::remove(journal.c_str());
}

TEST(CrashCorrelation, EmptyJournalPathDisablesTheFileNotTheThreshold) {
  CrashCorrelation cc(1, "");
  EXPECT_EQ(cc.record(5, "{}"), 1);
  EXPECT_TRUE(cc.quarantined(5));
}

// --- worker wire round trip --------------------------------------------------

TEST(SupervisorWire, RenderRequestRoundTripsBitIdentically) {
  serve::ServeRequest r;
  r.id = "w1";
  r.cmd = "mc";
  r.tech = "250nm";
  r.package = "qfp";
  r.pads = 3;
  r.inductance = 3.1e-9;
  r.n_drivers = 13;
  r.rise_time = 0.137e-9;
  r.include_c = false;
  r.samples = 257;
  r.seed = 99;
  r.deadline_s = 1.25;
  const std::string wire = serve::render_request(r);
  const auto parsed = serve::parse_request(wire);
  ASSERT_TRUE(parsed.ok) << parsed.error << " <- " << wire;
  EXPECT_EQ(serve::render_request(parsed.request), wire);
  EXPECT_EQ(parsed.request.id, "w1");
  EXPECT_EQ(parsed.request.n_drivers, 13);
  EXPECT_DOUBLE_EQ(parsed.request.inductance, 3.1e-9);
  EXPECT_DOUBLE_EQ(parsed.request.deadline_s, 1.25);
  EXPECT_FALSE(parsed.request.include_c);
  // The same request hashes to the same cache key across the process hop —
  // that is what makes crash correlation (and caching) well-defined.
  EXPECT_EQ(serve::cache_key(r), serve::cache_key(parsed.request));
}

TEST(SupervisorWire, SplitResponseLineRecoversFragmentAndCode) {
  serve::ResponseView v;
  const std::string ok =
      serve::render_ok("a", R"({"v_max":0.25,"unit":"V"})", false, 42);
  ASSERT_TRUE(serve::split_response_line(ok, v));
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.fragment, R"({"v_max":0.25,"unit":"V"})");
  EXPECT_EQ(v.code, "");

  const std::string err = serve::render_error("a", "SSN-E065", "boom");
  ASSERT_TRUE(serve::split_response_line(err, v));
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.code, "SSN-E065");
  EXPECT_FALSE(v.cancelled);

  const std::string cancelled =
      serve::render_error("a", "SSN-E066", "deadline expired");
  ASSERT_TRUE(serve::split_response_line(cancelled, v));
  EXPECT_TRUE(v.cancelled);

  EXPECT_FALSE(serve::split_response_line("not json at all", v));
  EXPECT_FALSE(serve::split_response_line("", v));
}

// --- shed-retry jitter -------------------------------------------------------

TEST(SupervisorJitter, DeterministicAndSpreadOverHalfToThreeHalves) {
  // The base is 50 ms, so every hint lands in [25, 75) ms.
  bool saw_distinct = false;
  double first = -1.0;
  for (int i = 0; i < 100; ++i) {
    std::ostringstream id;
    id << "client-" << i;
    const double v = serve::jittered_retry_after_ms(id.str());
    EXPECT_GE(v, 25.0) << id.str();
    EXPECT_LT(v, 75.0) << id.str();
    EXPECT_DOUBLE_EQ(v, serve::jittered_retry_after_ms(id.str()))
        << "jitter must be a pure function of the id";
    if (first < 0.0) first = v;
    else if (v != first) saw_distinct = true;
  }
  EXPECT_TRUE(saw_distinct) << "jitter never spread the herd";
  // The base and the seed mix are fixed; shed clients are told exactly
  // these hints, so a changed seed or base shows up here.
  EXPECT_DOUBLE_EQ(serve::jittered_retry_after_ms("client-0"), 63.65485191345215);
  EXPECT_DOUBLE_EQ(serve::jittered_retry_after_ms("client-1"), 63.66767883300781);
}

#if !defined(_WIN32)

// --- the spawn primitive -----------------------------------------------------

TEST(Subprocess, ThrowingChildMainDiesBySigabrt) {
  // The try block stands for the caller frames a forked child inherits (for
  // serve's initial workers, run_cli's catch). An exception escaping
  // child_main must end the child, not unwind into that catch, which would
  // make the child exit 42.
  support::ChildProcess child;
  std::string err;
  try {
    ASSERT_TRUE(support::spawn_child(
        [](int) -> int { throw std::runtime_error("child_main failed"); }, {},
        child, err))
        << err;
  } catch (const std::runtime_error&) {
    ::_exit(42);
  }
  support::ExitStatus status;
  support::wait_child(child.pid, status);
  ::close(child.fd);
  EXPECT_FALSE(status.exited) << support::describe_exit(status);
  EXPECT_EQ(status.sig, SIGABRT) << support::describe_exit(status);
}

// --- live process isolation --------------------------------------------------

TEST(SupervisorProcess, ComputesAndCachesAcrossTheProcessBoundary) {
  serve::Server server(process_config(2));
  ResponseCollector rc;
  server.submit_line(R"({"id":"p1","cmd":"estimate","n":6,"tr":1e-10})",
                     rc.sink());
  rc.await(1);
  server.submit_line(R"({"id":"p2","cmd":"estimate","n":6,"tr":1e-10})",
                     rc.sink());
  const auto lines = rc.await(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(count_lines_with(lines, "\"ok\":true"), 2);
  EXPECT_EQ(count_lines_with(lines, "\"cached\":true"), 1);
  ASSERT_NE(server.supervisor(), nullptr);
  EXPECT_EQ(server.supervisor()->worker_pids().size(), 2u);
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

/// Submit BSIM sweeps s<first>..s<first + count - 1>, each bounded by its
/// own 30 s deadline (150-230 ms of work on a 4-vCPU VM, release).
void submit_sweeps(serve::Server& server, ResponseCollector& rc,
                   std::size_t first, std::size_t count) {
  for (std::size_t i = first; i < first + count; ++i)
    server.submit_line(
        R"({"id":"s)" + std::to_string(i) +
            R"(","cmd":"sweep-n","max_n":64,"tr":1e-6,"golden":"bsim","c":1e-9,"deadline":30})",
        rc.sink());
}

/// Answer one closed-form estimate in a worker: the last request to leave
/// a worker is then a short one, which lets spare workers take requests.
void run_short_request(serve::Server& server) {
  ResponseCollector rc;
  server.submit_line(R"({"id":"short","cmd":"estimate","n":6,"tr":1e-10})",
                     rc.sink());
  ASSERT_EQ(count_lines_with(rc.await(1), "\"ok\":true"), 1);
}

/// The most workers seen holding a request at once until `rc` has
/// `total` answers, all of them ok (or, early, once `stop_at` are seen).
std::size_t peak_busy_workers(serve::Server& server, ResponseCollector& rc,
                              std::size_t total, std::size_t stop_at) {
  std::size_t peak = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (peak < stop_at && rc.size() < total &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
    peak = std::max(peak, server.supervisor()->busy_workers());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count_lines_with(rc.await(total), "\"ok\":true"), int(total));
  return peak;
}

/// After a short request, submit `count` sweeps together and return the
/// most workers seen holding one at once. On a loaded machine the short
/// request itself can take 10 ms or more in its worker, which counts as
/// compute-bound and keeps the spare workers closed, so up to 5 rounds run
/// and the best is returned.
std::size_t peak_after_short_request(serve::Server& server,
                                     std::size_t count) {
  std::size_t best = 0;
  for (std::size_t round = 0; round < 5 && best < count; ++round) {
    run_short_request(server);
    ResponseCollector rc;
    submit_sweeps(server, rc, round * count, count);
    best = std::max(best, peak_busy_workers(server, rc, count, count));
  }
  return best;
}

TEST(SupervisorProcess, DefaultPoolIsTwiceTheThreadsAndAllHoldRequests) {
  // --threads 2 and no --workers: 4 workers, and one server thread per
  // worker, so after a short request 4 sweeps submitted together are all
  // in workers at once (with one thread per --threads only 2 could). The
  // doubled default goes through the Supervisor's resolve_threads like any
  // pool, so it is clamped at 64 as well.
  serve::ServerConfig config = process_config(0);
  config.cache_capacity = 0;
  serve::Server server(config);
  ASSERT_NE(server.supervisor(), nullptr);
  EXPECT_EQ(server.supervisor()->worker_pids().size(), 4u);
  EXPECT_EQ(peak_after_short_request(server, 4), 4u);
}

TEST(SupervisorProcess, ComputeBoundRequestsGetNoSpareWorkers) {
  // --threads 2, default pool of 4. Spare workers would halve every
  // sweep's CPU, so sweeps run at most 2 at once: in a cold pool, while a
  // sweep has run 10 ms in a worker as other requests came and went, and
  // after a sweep was the last request to leave a worker.
  serve::ServerConfig config = process_config(0);
  config.cache_capacity = 0;
  serve::Server server(config);
  ResponseCollector cold;
  submit_sweeps(server, cold, 0, 4);
  EXPECT_EQ(peak_busy_workers(server, cold, 4, 3), 2u);

  run_short_request(server);
  ResponseCollector running;
  submit_sweeps(server, running, 4, 2);
  const auto t0 = std::chrono::steady_clock::now();
  while (server.supervisor()->busy_workers() < 2 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  run_short_request(server);  // in a spare worker, beside the two sweeps
  submit_sweeps(server, running, 6, 2);
  EXPECT_EQ(peak_busy_workers(server, running, 4, 3), 2u);

  ResponseCollector after;
  submit_sweeps(server, after, 8, 4);
  EXPECT_EQ(peak_busy_workers(server, after, 4, 3), 2u);
}

TEST(SupervisorProcess, QueueBoundCountsRequestsHeldAtTheWorkerGate) {
  // --queue 2 beside --threads 2 and the default pool of 4 workers, so 4
  // server threads. In a cold pool two sweeps compute and two more wait at
  // the worker gate: those two are the --queue requests waiting to start,
  // so the next three are all shed with SSN-E064, as in thread mode.
  // Counting only the queue admitted two of them.
  serve::ServerConfig config = process_config(0);
  config.queue_capacity = 2;
  config.cache_capacity = 0;
  serve::Server server(config);
  ResponseCollector sweeps;
  submit_sweeps(server, sweeps, 0, 2);
  const auto t0 = std::chrono::steady_clock::now();
  while (server.supervisor()->busy_workers() < 2 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  submit_sweeps(server, sweeps, 2, 2);
  // Two idle server threads take these to the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ResponseCollector late;
  submit_sweeps(server, late, 4, 3);
  ASSERT_EQ(server.supervisor()->busy_workers(), 2u)
      << "a sweep left its worker before the last three arrived";
  EXPECT_EQ(count_lines_with(late.await(3), "SSN-E064"), 3);
  EXPECT_EQ(count_lines_with(sweeps.await(4), "\"ok\":true"), 4);
  EXPECT_EQ(server.stats().shed, 3u);
}

TEST(SupervisorProcess, CacheHitIsAnsweredWhileTheOnlyWorkerIsBusy) {
  // --threads 2 beside --workers 1: the server keeps its 2 threads, so the
  // one a long sweep leaves free replays a cached estimate at once instead
  // of queueing it behind the sweep.
  serve::ServerConfig config = process_config(1);
  serve::Server server(config);
  ResponseCollector rc;
  const std::string estimate =
      R"({"id":"hit","cmd":"estimate","n":6,"tr":1e-10})";
  server.submit_line(estimate, rc.sink());
  ASSERT_EQ(count_lines_with(rc.await(1), "\"ok\":true"), 1);
  server.submit_line(
      R"({"id":"sweep","cmd":"sweep-n","max_n":64,"tr":1e-6,"golden":"bsim","c":1e-9,"deadline":30})",
      rc.sink());
  const auto t0 = std::chrono::steady_clock::now();
  while (server.supervisor()->busy_workers() == 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.supervisor()->busy_workers(), 1u);
  server.submit_line(estimate, rc.sink());
  const auto lines = rc.await(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find(R"("id":"hit","ok":true)"), std::string::npos)
      << "the cache hit waited for the sweep: " << lines[1];
  EXPECT_NE(lines[1].find(R"("cached":true)"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find(R"("id":"sweep","ok":true)"), std::string::npos)
      << lines[2];
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

TEST(SupervisorProcess, ExplicitWorkersSetThePoolAndOneThreadEach) {
  // --workers 3 beside --threads 2: 3 workers, and after a short request
  // all 3 busy at once.
  serve::ServerConfig config = process_config(3);
  config.cache_capacity = 0;
  serve::Server server(config);
  EXPECT_EQ(server.supervisor()->worker_pids().size(), 3u);
  EXPECT_EQ(peak_after_short_request(server, 3), 3u);
}

/// Each request line's answer from a fresh server, keyed by id, without
/// its `elapsed_us` (a timing, not a result).
std::map<std::string, std::string> answers_by_id(
    const serve::ServerConfig& config, const std::vector<std::string>& lines) {
  serve::Server server(config);
  ResponseCollector rc;
  for (const std::string& line : lines) server.submit_line(line, rc.sink());
  std::map<std::string, std::string> answers;
  for (std::string line : rc.await(lines.size())) {
    const std::size_t elapsed = line.find(R"("elapsed_us":)");
    if (elapsed != std::string::npos)
      line.erase(elapsed, line.find(',', elapsed) - elapsed);
    const std::size_t at = line.find(R"("id":")") + 6;
    answers[line.substr(at, line.find('"', at) - at)] = line;
  }
  return answers;
}

TEST(SupervisorProcess, AnswersMatchThreadModeByteForByte) {
  // The default tech/golden pair and 250nm/bsim, each fitted in a worker's
  // own calibration cache on first use, answer exactly as thread mode does,
  // simulated estimates, mc and sweeps included.
  const std::vector<std::string> lines = {
      R"({"id":"d-est","cmd":"estimate","n":6,"tr":1e-10})",
      R"({"id":"d-sim","cmd":"estimate","n":4,"tr":1e-10,"sim":true})",
      R"({"id":"d-mc","cmd":"mc","n":8,"samples":200,"seed":7})",
      R"({"id":"d-sweep","cmd":"sweep-n","max_n":6,"tr":1e-10})",
      R"({"id":"b-est","cmd":"estimate","tech":"250nm","golden":"bsim","n":6,"tr":2e-10})",
      R"({"id":"b-sim","cmd":"estimate","tech":"250nm","golden":"bsim","n":4,"tr":2e-10,"sim":true})",
      R"({"id":"b-mc","cmd":"mc","tech":"250nm","golden":"bsim","samples":200})",
      R"({"id":"b-lonly","cmd":"estimate","tech":"250nm","golden":"bsim","include_c":false})",
  };
  serve::ServerConfig thread_config;
  thread_config.threads = 2;
  thread_config.cache_capacity = 0;
  serve::ServerConfig process = process_config(0);
  process.threads = 1;  // 2 workers
  process.cache_capacity = 0;
  const auto in_threads = answers_by_id(thread_config, lines);
  const auto in_workers = answers_by_id(process, lines);
  ASSERT_EQ(in_threads.size(), lines.size());
  EXPECT_EQ(in_workers, in_threads);
  for (const auto& [id, answer] : in_threads)
    EXPECT_NE(answer.find(R"("ok":true)"), std::string::npos) << answer;
}

TEST(SupervisorProcess, Kill9MidRequestAnswersExactlyOneE069) {
  // One worker so the victim is unambiguous; a long sweep keeps it busy
  // (150-230 ms on a 4-vCPU VM, release, against the ~1 ms busy poll).
  serve::ServerConfig config = process_config(1);
  config.cache_capacity = 0;
  serve::Server server(config);
  ResponseCollector rc;
  server.submit_line(
      R"({"id":"victim","cmd":"sweep-n","max_n":64,"tr":1e-6,"golden":"bsim","c":1e-9,"deadline":30})",
      rc.sink());
  // Wait until the worker provably holds the request (admission precedes
  // the socketpair write — killing an idle worker would just be retried).
  const auto t0 = std::chrono::steady_clock::now();
  while (server.supervisor()->busy_workers() == 0 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.supervisor()->busy_workers(), 1u);
  ASSERT_EQ(server.stats().responded, 0u) << "sweep finished before the kill";
  const auto pids = server.supervisor()->worker_pids();
  ASSERT_EQ(pids.size(), 1u);
  ASSERT_EQ(::kill(pid_t(pids[0]), SIGKILL), 0);
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(count_lines_with(lines, "SSN-E069"), 1)
      << "the killed worker's request must fail typed exactly once: "
      << lines[0];
  // The daemon is unharmed: the slot respawns (backoff ~25 ms) and serves.
  server.submit_line(R"({"id":"after","cmd":"estimate","n":4,"tr":1e-10})",
                     rc.sink());
  const auto after = rc.await(2);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(count_lines_with(after, "\"id\":\"after\",\"ok\":true"), 1);
  EXPECT_EQ(server.stats().worker_crashes, 1u);
  EXPECT_EQ(server.supervisor()->counters().crashes, 1u);
}

TEST(SupervisorProcess, GraceBeyondTheClockRangeNeverKills) {
  // A deadline plus grace past steady_clock's range means no kill time. It
  // must not overflow into a kill time in the past, which the watchdog's
  // next 20 ms tick would enforce with SIGKILL (SSN-E068). The sweep runs
  // 150-230 ms on a 4-vCPU VM (release), several ticks.
  serve::ServerConfig config = process_config(1);
  config.cache_capacity = 0;
  config.supervisor.grace_s = 1e10;
  serve::Server server(config);
  ResponseCollector rc;
  server.submit_line(
      R"({"id":"long","cmd":"sweep-n","max_n":64,"tr":1e-6,"golden":"bsim","c":1e-9,"deadline":30})",
      rc.sink());
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(count_lines_with(lines, "\"id\":\"long\",\"ok\":true"), 1)
      << lines[0];
  EXPECT_EQ(server.stats().worker_timeouts, 0u);
}

// A sweep that names no deadline of its own: 150-230 ms on a 4-vCPU VM
// (release), several times the 50 ms server default below.
constexpr const char* kUnboundedSweep =
    R"({"id":"long","cmd":"sweep-n","max_n":64,"tr":1e-6,"golden":"bsim","c":1e-9})";

TEST(SupervisorProcess, RequestDeadlineFlagReachesTheWorker) {
  // --request-deadline stops the worker cooperatively (SSN-E066
  // deadline-expired), as in thread mode, long before the watchdog's
  // 5 s grace would kill it.
  serve::ServerConfig config = process_config(1);
  config.cache_capacity = 0;
  config.default_deadline_s = 0.05;
  config.supervisor.grace_s = 5.0;
  serve::Server server(config);
  ResponseCollector rc;
  server.submit_line(kUnboundedSweep, rc.sink());
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(count_lines_with(lines, "SSN-E066"), 1) << lines[0];
  EXPECT_EQ(count_lines_with(lines, "\"kind\":\"deadline-expired\""), 1)
      << lines[0];
  EXPECT_EQ(server.stats().worker_timeouts, 0u);
  EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(SupervisorProcess, RequestDeadlineFlagNeverCostsAWorker) {
  // The worker stops cooperatively at --request-deadline, so even a grace
  // as short as the deadline never lets the watchdog kill it (SSN-E068)
  // or quarantine the key after two deaths (SSN-E070): every copy answers
  // SSN-E066.
  serve::ServerConfig config = process_config(1);
  config.cache_capacity = 0;
  config.default_deadline_s = 0.05;
  config.supervisor.grace_s = 0.05;
  serve::Server server(config);
  ResponseCollector rc;
  for (int i = 0; i < 3; ++i) {
    server.submit_line(kUnboundedSweep, rc.sink());
    rc.await(std::size_t(i) + 1);
  }
  const auto lines = rc.await(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(count_lines_with(lines, "\"kind\":\"deadline-expired\""), 3)
      << lines[0] << '\n' << lines[1] << '\n' << lines[2];
  const auto stats = server.stats();
  EXPECT_EQ(stats.cancelled, 3u);
  EXPECT_EQ(stats.worker_timeouts, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
}

TEST(SupervisorProcess, DrainStaysBoundedWhenTheWorkerIsStopped) {
  // Regression for the drain-vs-hang hole: SIGSTOP freezes the worker into
  // a perfect non-cooperative hang (it will never poll anything again).
  // finish() must still return promptly because the drain deadline routes
  // through kill_inflight() rather than waiting on cooperation.
  serve::ServerConfig config = process_config(1);
  config.threads = 1;
  config.cache_capacity = 0;
  config.drain_deadline_s = 0.2;
  ResponseCollector rc;
  serve::ServerStats stats;
  {
    serve::Server server(config);
    // 150-230 ms of work on a 4-vCPU VM (release): still running when
    // the ~1 ms busy poll below sees the worker take it.
    server.submit_line(
        R"({"id":"frozen","cmd":"sweep-n","max_n":64,"tr":1e-6,"golden":"bsim","c":1e-9})",
        rc.sink());
    const auto t0 = std::chrono::steady_clock::now();
    while (server.supervisor()->busy_workers() == 0 &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(server.supervisor()->busy_workers(), 1u);
    ASSERT_EQ(server.stats().responded, 0u);
    const auto pids = server.supervisor()->worker_pids();
    ASSERT_EQ(pids.size(), 1u);
    ASSERT_EQ(::kill(pid_t(pids[0]), SIGSTOP), 0);
    const auto drain0 = std::chrono::steady_clock::now();
    server.finish();
    const double drain_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      drain0)
            .count();
    EXPECT_LT(drain_s, 5.0) << "drain hung on a stopped worker";
    stats = server.stats();
  }
  const auto lines = rc.await(1);
  ASSERT_EQ(lines.size(), 1u) << "the frozen request went unanswered";
  EXPECT_EQ(count_lines_with(lines, "\"ok\":false"), 1) << lines[0];
  EXPECT_EQ(stats.responded, 1u);
}

// --- injected worker faults (fault-injection preset only) --------------------

TEST(SupervisorFaultInjection, PoisonKeyIsQuarantinedOnTheNthCrash) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "needs -DSSNKIT_FAULT_INJECTION=ON (fault-injection preset)";
  // Workers fork from this process, inheriting the armed plan; only the
  // n=13 design point crashes (the worker scopes requests by n_drivers).
  auto& injector = support::FaultInjector::instance();
  support::FaultPlan plan;
  plan.probability = 1.0;
  plan.only_sample = 13;
  injector.arm(support::FaultKind::kWorkerCrash, plan);

  const std::string journal = temp_path("quarantine_e2e.jsonl");
  std::remove(journal.c_str());
  serve::ServerConfig config = process_config(2);
  config.cache_capacity = 0;
  config.supervisor.quarantine_after = 2;
  config.supervisor.quarantine_file = journal;
  serve::Server server(config);
  ResponseCollector rc;
  const char* poison = R"({"id":"q%d","cmd":"estimate","n":13,"tr":1e-10})";
  for (int i = 0; i < 3; ++i) {
    char line[96];
    std::snprintf(line, sizeof line, poison, i);
    server.submit_line(line, rc.sink());
    rc.await(std::size_t(i) + 1);  // keep the deaths strictly ordered
  }
  const auto lines = rc.await(3);
  injector.disarm_all();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(count_lines_with(lines, "SSN-E069"), 2)
      << "the first N-1 crashes must still be retried";
  EXPECT_EQ(count_lines_with(lines, "SSN-E070"), 1)
      << "the Nth crash must quarantine the key";
  EXPECT_EQ(server.supervisor()->correlation().quarantined_keys(), 1u);
  // A healthy design point keeps serving.
  server.submit_line(R"({"id":"fine","cmd":"estimate","n":8,"tr":1e-10})",
                     rc.sink());
  EXPECT_EQ(count_lines_with(rc.await(4), "\"id\":\"fine\",\"ok\":true"), 1);
  // The journal holds the raw poison line, ready for offline replay.
  std::ifstream in(journal);
  std::string journaled;
  ASSERT_TRUE(std::getline(in, journaled)) << "quarantine journal is empty";
  EXPECT_NE(journaled.find("\"n\":13"), std::string::npos) << journaled;
  EXPECT_TRUE(serve::parse_request(journaled).ok) << journaled;
  std::remove(journal.c_str());
}

TEST(SupervisorFaultInjection, WatchdogKillsANonCooperativeHangWithE068) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "needs -DSSNKIT_FAULT_INJECTION=ON (fault-injection preset)";
  auto& injector = support::FaultInjector::instance();
  support::FaultPlan plan;
  plan.probability = 1.0;
  plan.only_sample = 11;
  injector.arm(support::FaultKind::kWorkerHang, plan);

  serve::ServerConfig config = process_config(1);
  config.cache_capacity = 0;
  config.supervisor.grace_s = 0.2;
  serve::Server server(config);
  ResponseCollector rc;
  server.submit_line(
      R"({"id":"hung","cmd":"estimate","n":11,"tr":1e-10,"deadline":0.2})",
      rc.sink());
  const auto lines = rc.await(1);
  injector.disarm_all();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(count_lines_with(lines, "SSN-E068"), 1) << lines[0];
  EXPECT_EQ(server.stats().worker_timeouts, 1u);
  EXPECT_EQ(server.supervisor()->counters().timeouts, 1u);
  // The hung slot respawned; the daemon keeps serving.
  server.submit_line(R"({"id":"next","cmd":"estimate","n":5,"tr":1e-10})",
                     rc.sink());
  EXPECT_EQ(count_lines_with(rc.await(2), "\"id\":\"next\",\"ok\":true"), 1);
}

TEST(SupervisorFaultInjection, RlimitOomDiesTypedNotSilent) {
  if (!support::kFaultInjectionEnabled)
    GTEST_SKIP() << "needs -DSSNKIT_FAULT_INJECTION=ON (fault-injection preset)";
  auto& injector = support::FaultInjector::instance();
  support::FaultPlan plan;
  plan.probability = 1.0;
  plan.only_sample = 12;
  injector.arm(support::FaultKind::kWorkerOom, plan);

  serve::ServerConfig config = process_config(1);
  config.cache_capacity = 0;
  config.supervisor.mem_limit_mb = 256;
  serve::Server server(config);
  ResponseCollector rc;
  server.submit_line(R"({"id":"oom","cmd":"estimate","n":12,"tr":1e-10})",
                     rc.sink());
  const auto lines = rc.await(1);
  injector.disarm_all();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(count_lines_with(lines, "SSN-E069"), 1) << lines[0];
  EXPECT_EQ(server.stats().worker_crashes, 1u);
}

#endif  // !defined(_WIN32)

}  // namespace
