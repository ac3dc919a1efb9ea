// Tests for the simulation service: JSON layer, result cache, canonical
// keys, latency histograms, dispatcher determinism, and full client/server
// round trips (byte-identical cold/cached/restart responses, deterministic
// overload rejection, concurrent submitters, cooperative shutdown).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/cache.hpp"
#include "serve/dispatcher.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"

namespace mrsc::serve {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(ServeJson, ParseDumpRoundTripIsByteStable) {
  const std::string text =
      R"({"a":1,"b":"two","c":[true,false,null],"d":{"nested":-2.5},"e":""})";
  const json::Value value = json::parse(text);
  EXPECT_EQ(value.dump(), text);
  // dump(parse(dump(x))) == dump(x): one serialization path, fixed point.
  EXPECT_EQ(json::parse(value.dump()).dump(), text);
}

TEST(ServeJson, ObjectsPreserveInsertionOrder) {
  const json::Value value = json::parse(R"({"z":1,"a":2,"m":3})");
  EXPECT_EQ(value.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(ServeJson, NumbersUseIntegerShortening) {
  EXPECT_EQ(json::number_to_string(42.0), "42");
  EXPECT_EQ(json::number_to_string(-7.0), "-7");
  EXPECT_EQ(json::number_to_string(0.5), "0.5");
  // Seeds survive a parse -> dump round trip textually.
  EXPECT_EQ(json::parse("123456789").dump(), "123456789");
}

TEST(ServeJson, StringEscapes) {
  const json::Value value = json::parse(R"({"s":"a\"b\\c\nA"})");
  EXPECT_EQ(value.get_string("s", ""), "a\"b\\c\nA");
  EXPECT_EQ(json::quote("tab\there"), R"("tab\there")");
}

TEST(ServeJson, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)json::parse(""), std::invalid_argument);
  EXPECT_THROW((void)json::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW((void)json::parse(R"({"a":1e})"), std::invalid_argument);
  EXPECT_THROW((void)json::parse("[1,2,"), std::invalid_argument);
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  EXPECT_THROW((void)json::parse(deep), std::invalid_argument);
}

TEST(ServeJson, TypedAccessorsThrowOnWrongType) {
  const json::Value value = json::parse(R"({"n":1,"s":"x","b":true})");
  EXPECT_EQ(value.get_number("n", 0.0), 1.0);
  EXPECT_EQ(value.get_string("missing", "fallback"), "fallback");
  EXPECT_THROW((void)value.get_string("n", ""), std::invalid_argument);
  EXPECT_THROW((void)value.get_number("s", 0.0), std::invalid_argument);
  EXPECT_THROW((void)value.get_bool("n", false), std::invalid_argument);
}

// ----------------------------------------------------------- histogram --

TEST(ServeStats, HistogramPercentilesWithinBucketTolerance) {
  LatencyHistogram histogram;
  for (int i = 1; i <= 1000; ++i) {
    histogram.record(static_cast<double>(i) * 1e-3);  // 1ms .. 1000ms
  }
  EXPECT_EQ(histogram.count(), 1000u);
  EXPECT_DOUBLE_EQ(histogram.max_seconds(), 1.0);
  // Log2 buckets, 4 per octave: estimates must land within ~19% relative.
  EXPECT_NEAR(histogram.percentile(0.50), 0.500, 0.500 * 0.20);
  EXPECT_NEAR(histogram.percentile(0.90), 0.900, 0.900 * 0.20);
  EXPECT_NEAR(histogram.percentile(0.99), 0.990, 0.990 * 0.20);
}

TEST(ServeStats, EmptyHistogramReportsZero) {
  const LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.percentile(0.5), 0.0);
  EXPECT_EQ(histogram.max_seconds(), 0.0);
}

// --------------------------------------------------------------- cache --

TEST(ServeCache, CountsHitsAndMisses) {
  ResultCache cache(4, 1 << 20);
  EXPECT_FALSE(cache.get("k").has_value());
  cache.put("k", "v");
  const auto hit = cache.get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "v");
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ServeCache, EvictsLeastRecentlyUsedByEntryCount) {
  ResultCache cache(2, 1 << 20);
  cache.put("a", "1");
  cache.put("b", "2");
  ASSERT_TRUE(cache.get("a").has_value());  // refresh "a": "b" is now LRU
  cache.put("c", "3");                      // evicts "b"
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServeCache, EvictsByTotalBytes) {
  ResultCache cache(100, 64);
  cache.put("a", std::string(30, 'x'));
  cache.put("b", std::string(30, 'y'));
  cache.put("c", std::string(30, 'z'));  // pushes bytes past 64: "a" goes
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_LE(cache.stats().bytes, 64u + 2u);  // keys excluded from the bound
}

TEST(ServeCache, OversizedValueIsNotCached) {
  ResultCache cache(10, 16);
  cache.put("big", std::string(64, 'x'));
  EXPECT_FALSE(cache.get("big").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServeCache, ZeroCapacityDisablesCaching) {
  ResultCache cache(0, 1 << 20);
  cache.put("k", "v");
  EXPECT_FALSE(cache.get("k").has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ------------------------------------------------------ canonical keys --

json::Value job_json(const std::string& body) {
  return json::parse(R"({"op":"job",)" + body + "}");
}

TEST(ServeDispatcher, OmittedFieldsShareTheDefaultKey) {
  const JobRequest terse = parse_job(job_json(R"("kind":"sim")"));
  const JobRequest spelled = parse_job(job_json(
      R"("kind":"sim","design":"counter","seed":1,"opt":0,"method":"nrm",)"
      R"("t_end":5,"omega":200)"));
  EXPECT_EQ(canonical_key(terse), canonical_key(spelled));
}

TEST(ServeDispatcher, ResultDeterminingFieldsChangeTheKey) {
  const std::string base = canonical_key(parse_job(job_json(R"("kind":"sim")")));
  EXPECT_NE(base, canonical_key(parse_job(job_json(R"("kind":"sim","seed":2)"))));
  EXPECT_NE(base, canonical_key(parse_job(job_json(R"("kind":"sim","opt":1)"))));
  EXPECT_NE(base, canonical_key(parse_job(
                      job_json(R"("kind":"sim","method":"tau")"))));
  EXPECT_NE(base, canonical_key(parse_job(
                      job_json(R"("kind":"sim","design":"delay")"))));
  EXPECT_NE(base, canonical_key(parse_job(job_json(R"("kind":"lint")"))));
}

TEST(ServeDispatcher, DeadlineIsNotPartOfTheKey) {
  const std::string base = canonical_key(parse_job(job_json(R"("kind":"sim")")));
  EXPECT_EQ(base, canonical_key(parse_job(
                      job_json(R"("kind":"sim","deadline_s":120)"))));
}

TEST(ServeDispatcher, ParseJobRejectsBadRequests) {
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"banana")")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","method":"euler")")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","t_end":1e9)")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","seed":"one")")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"sim","opt":3)")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_job(job_json(R"("kind":"verify","seeds":0)")),
               std::invalid_argument);
}

TEST(ServeDispatcher, ScenarioSpecsAreCanonicalizedInTheKey) {
  // Two spellings of the same generator call share one cache key.
  const JobRequest spaced =
      parse_job(job_json(R"js("kind":"sim","design":"counter( 2 )")js"));
  const JobRequest tight =
      parse_job(job_json(R"js("kind":"sim","design":"counter(2)")js"));
  EXPECT_EQ(canonical_key(spaced), canonical_key(tight));
  // Fixed names canonicalize to themselves: pre-registry keys are stable.
  const JobRequest fixed =
      parse_job(job_json(R"("kind":"sim","design":"counter")"));
  EXPECT_NE(canonical_key(fixed).find("|design=counter|"),
            std::string::npos);
  // Bad specs are parse errors, not run failures.
  EXPECT_THROW(
      (void)parse_job(job_json(R"("kind":"sim","design":"banana")")),
      std::invalid_argument);
  EXPECT_THROW(
      (void)parse_job(
          job_json(R"js("kind":"lint","design":"counter(99)")js")),
      std::invalid_argument);
  EXPECT_THROW(
      (void)parse_job(
          job_json(R"js("kind":"sim","design":"counter(2,3)")js")),
      std::invalid_argument);
}

// ------------------------------------------------- dispatcher directly --

TEST(ServeDispatcher, SimJobIsDeterministic) {
  const JobRequest job = parse_job(
      job_json(R"("kind":"sim","design":"counter","t_end":2,"omega":100)"));
  const DispatchResult first = run_job(job, {});
  const DispatchResult second = run_job(job, {});
  EXPECT_TRUE(first.ok);
  EXPECT_TRUE(first.cacheable);
  EXPECT_EQ(first.payload, second.payload);
  EXPECT_NE(first.payload.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(first.payload.find("\"final\""), std::string::npos);
}

TEST(ServeDispatcher, SeedChangesTheSimPayload) {
  const DispatchResult seed1 = run_job(
      parse_job(job_json(
          R"("kind":"sim","design":"counter","t_end":2,"omega":100,"seed":1)")),
      {});
  const DispatchResult seed2 = run_job(
      parse_job(job_json(
          R"("kind":"sim","design":"counter","t_end":2,"omega":100,"seed":2)")),
      {});
  ASSERT_TRUE(seed1.ok);
  ASSERT_TRUE(seed2.ok);
  EXPECT_NE(seed1.payload, seed2.payload);
}

TEST(ServeDispatcher, DesignMemoHitReturnsTheSameObject) {
  const auto first = compiled_design("delay_chain(3)", 1);
  EXPECT_EQ(compiled_design("delay_chain(3)", 1).get(), first.get());
  EXPECT_NE(compiled_design("delay_chain(3)", 0).get(), first.get());
  // Bounded: once kDesignMemoEntries other designs were used since, the
  // entry is rebuilt (the holder's copy stays valid).
  for (std::size_t n = 1; n <= kDesignMemoEntries; ++n) {
    static_cast<void>(
        compiled_design("delay_chain(" + std::to_string(n + 3) + ")", 1));
  }
  EXPECT_NE(compiled_design("delay_chain(3)", 1).get(), first.get());
}

TEST(ServeDispatcher, MemoisedSimPayloadsMatchTheColdGoldens) {
  // Recorded from a server that resolved and compiled the design afresh
  // for every job; each job below runs twice, the second on a memo hit.
  const std::pair<const char*, const char*> goldens[] = {
      {R"g("kind":"sim","design":"counter(2)","t_end":1,"omega":50,)g"
       R"g("seed":9007199254740992)g",
       R"g({"status":"ok","kind":"sim","key":"mrsc-serve-v1|kind=sim|)g"
       R"g(design=counter(2)|opt=0|method=nrm|seed=9007199254740992|t_end=1|)g"
       R"g(omega=50|record=0.02","result":{"design":"counter(2)",)g"
       R"g("method":"nrm","opt":0,"seed":9007199254740992,"t_end":1,)g"
       R"g("omega":50,"end_time":1,"ssa_events":187,"ode_steps":0,"final":{)g"
       R"g("ctr_clk_R":0.95999999999999996,"ctr_clk_G":0.040000000000000001,)g"
       R"g("ctr_clk_B":0,"ctr_clk_r":0,"ctr_clk_g":0.02,)g"
       R"g("ctr_clk_b":0.23999999999999999,"ctr_clk_I_r2g":0,)g"
       R"g("ctr_clk_I_g2b":0,"ctr_clk_I_b2r":0,"ctr_c0":0,"ctr_c1":0,)g"
       R"g("ctr_n1":0,"ctr_c2":0,"ctr_n2":0,"ctr_Z0":1,"ctr_O0":0,)g"
       R"g("ctr_Zp0":0,"ctr_Op0":0,"ctr_Z1":1,"ctr_O1":0,"ctr_Zp1":0,)g"
       R"g("ctr_Op1":0}}})g"},
      {R"g("kind":"sim","design":"counter(2)","method":"dp45","t_end":1)g",
       R"g({"status":"ok","kind":"sim","key":"mrsc-serve-v1|kind=sim|)g"
       R"g(design=counter(2)|opt=0|method=dp45|seed=1|t_end=1|omega=200|)g"
       R"g(record=0.02","result":{"design":"counter(2)","method":"dp45",)g"
       R"g("opt":0,"seed":1,"t_end":1,"omega":200,"end_time":1,)g"
       R"g("ssa_events":0,"ode_steps":607,"final":{)g"
       R"g("ctr_clk_R":0.96967948931225245,"ctr_clk_G":0.028438432104955252,)g"
       R"g("ctr_clk_B":4.936886878390292e-07,)g"
       R"g("ctr_clk_r":0.0002578004944384814,)g"
       R"g("ctr_clk_g":0.0095330927518848512,)g"
       R"g("ctr_clk_b":0.22161925866973983,)g"
       R"g("ctr_clk_I_r2g":4.1012553232688084e-07,)g"
       R"g("ctr_clk_I_g2b":2.3572989214025966e-16,)g"
       R"g("ctr_clk_I_b2r":0.00094038232151970162,"ctr_c0":0,"ctr_c1":0,)g"
       R"g("ctr_n1":0,"ctr_c2":0,"ctr_n2":0,"ctr_Z0":1,"ctr_O0":0,)g"
       R"g("ctr_Zp0":0,"ctr_Op0":0,"ctr_Z1":1,"ctr_O1":0,"ctr_Zp1":0,)g"
       R"g("ctr_Op1":0}}})g"},
  };
  for (const auto& [body, golden] : goldens) {
    const JobRequest job = parse_job(job_json(body));
    for (int run = 0; run < 2; ++run) {
      const DispatchResult result = run_job(job, {});
      ASSERT_TRUE(result.ok) << result.payload;
      EXPECT_EQ(result.payload, golden) << body << " run " << run;
    }
  }
}

TEST(ServeDispatcher, LintJobPayloadIsCompactJson) {
  const DispatchResult result = run_job(
      parse_job(job_json(R"("kind":"lint","design":"counter","opt":1)")), {});
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.cacheable);
  // Re-serialized through the service's single dump path: no pretty-print
  // newlines may survive.
  EXPECT_EQ(result.payload.find('\n'), std::string::npos);
  const json::Value parsed = json::parse(result.payload);
  EXPECT_EQ(parsed.get_string("status", ""), "ok");
  ASSERT_NE(parsed.find("result"), nullptr);
  ASSERT_NE(parsed.find("result")->find("report"), nullptr);
  EXPECT_NE(parsed.find("result")->find("report")->find("checks_run"),
            nullptr);
}

TEST(ServeDispatcher, CanonicalResponses) {
  EXPECT_EQ(overload_response(),
            R"({"status":"rejected","reason":"overload"})");
  const json::Value error = json::parse(error_response("boom"));
  EXPECT_EQ(error.get_string("status", ""), "error");
  EXPECT_EQ(error.get_string("error", ""), "boom");
}

// ------------------------------------------------------- client/server --

struct ServerFixture {
  explicit ServerFixture(ServerOptions options = {}) {
    if (options.workers == 0) options.workers = 2;
    server = std::make_unique<Server>(options);
    server->start();
  }
  json::Value request(const std::string& payload) {
    Client client("127.0.0.1", server->port());
    return client.request(payload);
  }
  std::string request_raw(const std::string& payload) {
    Client client("127.0.0.1", server->port());
    return client.request_raw(payload);
  }
  double stat(const char* section, const char* field) {
    const json::Value stats = request(R"({"op":"stats"})");
    const json::Value* group = stats.find(section);
    if (group == nullptr) return -1.0;
    const json::Value* value = group->find(field);
    return value == nullptr ? -1.0 : value->as_number();
  }
  std::unique_ptr<Server> server;
};

constexpr const char* kSimRequest =
    R"({"op":"job","kind":"sim","design":"counter","t_end":2,"omega":100})";

TEST(ServeServer, PingHealthAndStatsSchema) {
  ServerFixture fixture;
  EXPECT_EQ(fixture.request_raw(R"({"op":"ping"})"),
            R"({"status":"ok","op":"ping"})");
  const json::Value health = fixture.request(R"({"op":"health"})");
  EXPECT_EQ(health.get_string("status", ""), "ok");
  EXPECT_TRUE(health.get_bool("accepting", false));
  const json::Value stats = fixture.request(R"({"op":"stats"})");
  for (const char* section : {"queue", "cache", "requests", "latency"}) {
    EXPECT_NE(stats.find(section), nullptr) << section;
  }
  EXPECT_NE(stats.find("latency")->find("sim"), nullptr);
  EXPECT_NE(stats.find("latency")->find("sim")->find("p99_ms"), nullptr);
}

TEST(ServeServer, ColdCachedAndRestartResponsesAreByteIdentical) {
  std::string cold;
  std::string cached;
  {
    ServerFixture fixture;
    cold = fixture.request_raw(kSimRequest);
    cached = fixture.request_raw(kSimRequest);
    EXPECT_EQ(cold, cached) << "cache hit must replay the cold bytes";
    EXPECT_GE(fixture.stat("cache", "hits"), 1.0);
    fixture.server->stop();
  }
  // A fresh server (fresh cache, fresh port) must produce the same bytes:
  // nothing volatile may leak into the payload.
  ServerFixture restarted;
  EXPECT_EQ(restarted.request_raw(kSimRequest), cold);
  const json::Value parsed = json::parse(cold);
  EXPECT_EQ(parsed.get_string("status", ""), "ok");
  EXPECT_EQ(parsed.get_string("kind", ""), "sim");
}

TEST(ServeServer, ScenarioJobColdCachedAndRestartAreByteIdentical) {
  constexpr const char* kScenarioRequest =
      R"js({"op":"job","kind":"sim","design":"counter(2)","t_end":2,"omega":100})js";
  std::string cold;
  {
    ServerFixture fixture;
    cold = fixture.request_raw(kScenarioRequest);
    const std::string cached = fixture.request_raw(kScenarioRequest);
    EXPECT_EQ(cold, cached) << "cache hit must replay the cold bytes";
    // A differently spelled spec canonicalizes to the same key and replays
    // the same bytes from the cache.
    const std::string spaced = fixture.request_raw(
        R"js({"op":"job","kind":"sim","design":"counter( 2 )","t_end":2,"omega":100})js");
    EXPECT_EQ(cold, spaced);
    EXPECT_GE(fixture.stat("cache", "hits"), 2.0);
    fixture.server->stop();
  }
  ServerFixture restarted;
  EXPECT_EQ(restarted.request_raw(kScenarioRequest), cold);
  const json::Value parsed = json::parse(cold);
  EXPECT_EQ(parsed.get_string("status", ""), "ok");
  EXPECT_NE(parsed.get_string("key", "").find("design=counter(2)"),
            std::string::npos);
}

TEST(ServeServer, ChangedParametersMissTheCache) {
  ServerFixture fixture;
  const std::string base = fixture.request_raw(kSimRequest);
  const std::string seed2 = fixture.request_raw(
      R"({"op":"job","kind":"sim","design":"counter","t_end":2,"omega":100,"seed":2})");
  const std::string opt1 = fixture.request_raw(
      R"({"op":"job","kind":"sim","design":"counter","t_end":2,"omega":100,"opt":1})");
  EXPECT_NE(base, seed2);
  EXPECT_NE(base, opt1);
  EXPECT_EQ(fixture.stat("cache", "hits"), 0.0);
  EXPECT_EQ(fixture.stat("cache", "misses"), 3.0);
}

TEST(ServeServer, VerifyAndStressJobsRoundTrip) {
  ServerFixture fixture;
  const json::Value verify = fixture.request(
      R"({"op":"job","kind":"verify","seeds":1,"kinds":"counter"})");
  EXPECT_EQ(verify.get_string("status", ""), "ok");
  const json::Value stress = fixture.request(
      R"({"op":"job","kind":"stress","design":"counter",)"
      R"("intensities":[0.02],"trials":1})");
  EXPECT_EQ(stress.get_string("status", ""), "ok");
}

TEST(ServeServer, BadRequestsGetErrorResponsesAndAreCounted) {
  ServerFixture fixture;
  EXPECT_EQ(fixture.request("not json at all").get_string("status", ""),
            "error");
  EXPECT_EQ(fixture.request(R"({"op":"banana"})").get_string("status", ""),
            "error");
  EXPECT_EQ(fixture
                .request(R"({"op":"job","kind":"sim","method":"banana"})")
                .get_string("status", ""),
            "error");
  EXPECT_EQ(fixture.stat("requests", "protocol_errors"), 3.0);
}

TEST(ServeServer, OverloadRejectionIsDeterministic) {
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 0;  // admission bound: exactly one job in flight
  ServerFixture fixture(options);

  std::thread sleeper([&] {
    // Occupies the only worker slot; never cached, so this is repeatable.
    Client client("127.0.0.1", fixture.server->port());
    (void)client.request_raw(R"({"op":"job","kind":"sleep","ms":1500})");
  });
  // Wait until the sleep job is admitted before probing.
  for (int i = 0; i < 200 && fixture.stat("queue", "in_flight") < 1.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(fixture.stat("queue", "in_flight"), 1.0);

  const std::string rejected = fixture.request_raw(kSimRequest);
  EXPECT_EQ(rejected, R"({"status":"rejected","reason":"overload"})");
  EXPECT_GE(fixture.stat("requests", "overload_rejected"), 1.0);
  sleeper.join();

  // Capacity freed: the same request now succeeds.
  EXPECT_EQ(json::parse(fixture.request_raw(kSimRequest))
                .get_string("status", ""),
            "ok");
}

TEST(ServeServer, ConcurrentSubmittersNeverDeadlock) {
  ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 2;
  ServerFixture fixture(options);

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 6;
  std::atomic<int> ok{0};
  std::atomic<int> overload{0};
  std::atomic<int> other{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client("127.0.0.1", fixture.server->port());
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string request =
            R"({"op":"job","kind":"sim","design":"counter","t_end":1,)"
            R"("omega":100,"seed":)" +
            std::to_string(t) + "}";
        const std::string status =
            json::parse(client.request_raw(request)).get_string("status", "");
        if (status == "ok") {
          ++ok;
        } else if (status == "rejected") {
          ++overload;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Every request got a response; under pressure the only legal non-ok
  // answer is the deterministic overload rejection.
  EXPECT_EQ(ok.load() + overload.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), kThreads);  // retries aside, plenty must succeed
}

// --------------------------------------------- framing-fault regressions --
//
// A peer that violates the framing — closes mid-header, closes mid-payload,
// or sends a garbage length prefix — must cost exactly its own connection:
// counted in requests.connection_errors, never tearing down the accept
// loop. Each case is followed by a successful ping on a fresh connection.

void send_raw_and_close(std::uint16_t port, const std::string& bytes) {
  const Socket socket = connect_to("127.0.0.1", port);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(socket.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  // Socket closes on scope exit: the server sees EOF wherever we left it.
}

double wait_for_stat_at_least(ServerFixture& fixture, const char* section,
                              const char* field, double target) {
  // Connection teardown is handled on the connection's own thread; give the
  // counter a moment to land.
  double value = -1.0;
  for (int i = 0; i < 200; ++i) {
    value = fixture.stat(section, field);
    if (value >= target) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return value;
}

TEST(ServeServer, TruncatedFramesAreCleanPerConnectionErrors) {
  ServerFixture fixture;

  // Case 1: half a length header, then close.
  send_raw_and_close(fixture.server->port(), std::string("\x00\x00", 2));
  // Case 2: a full header promising 100 bytes, 10 delivered, then close.
  std::string mid_payload("\x00\x00\x00\x64", 4);
  mid_payload += "0123456789";
  send_raw_and_close(fixture.server->port(), mid_payload);
  // Case 3: a garbage length prefix far past kMaxFrameBytes.
  send_raw_and_close(fixture.server->port(),
                     std::string("\xFF\xFF\xFF\xFF", 4));

  EXPECT_GE(wait_for_stat_at_least(fixture, "requests", "connection_errors",
                                   3.0),
            3.0);
  // The accept loop survived all three: a fresh connection works.
  EXPECT_EQ(fixture.request_raw(R"({"op":"ping"})"),
            R"({"status":"ok","op":"ping"})");
  EXPECT_TRUE(fixture.request(R"({"op":"health"})")
                  .get_bool("accepting", false));
}

// ------------------------------------------------------- catalog / drain --

TEST(ServeServer, CatalogOpMatchesTheLocalRegistryByteForByte) {
  ServerFixture fixture;
  const std::string over_the_wire = fixture.request_raw(R"({"op":"catalog"})");
  EXPECT_EQ(over_the_wire, catalog_response());
  EXPECT_EQ(fixture.request_raw(R"({"op":"catalog"})"), over_the_wire);
  const json::Value parsed = json::parse(over_the_wire);
  EXPECT_EQ(parsed.get_string("status", ""), "ok");
  ASSERT_NE(parsed.find("fixed"), nullptr);
  ASSERT_NE(parsed.find("generators"), nullptr);
  ASSERT_NE(parsed.find("smoke"), nullptr);
  EXPECT_FALSE(parsed.find("fixed")->as_array().empty());
  EXPECT_FALSE(parsed.find("smoke")->as_array().empty());
}

TEST(ServeServer, DrainShedsJobsButKeepsIntrospectionAlive) {
  ServerFixture fixture;
  EXPECT_EQ(fixture.request_raw(R"({"op":"drain"})"),
            R"({"status":"ok","op":"drain","draining":true})");
  // Drain is one-way and idempotent.
  EXPECT_EQ(fixture.request_raw(R"({"op":"drain"})"),
            R"({"status":"ok","op":"drain","draining":true})");

  EXPECT_EQ(fixture.request_raw(kSimRequest), draining_response());
  EXPECT_GE(fixture.stat("requests", "drain_rejected"), 1.0);

  // Introspection ops keep answering on a draining shard.
  EXPECT_EQ(fixture.request_raw(R"({"op":"ping"})"),
            R"({"status":"ok","op":"ping"})");
  const json::Value health = fixture.request(R"({"op":"health"})");
  EXPECT_FALSE(health.get_bool("accepting", true));
  EXPECT_TRUE(health.get_bool("draining", false));
  const json::Value stats = fixture.request(R"({"op":"stats"})");
  EXPECT_TRUE(stats.get_bool("draining", false));
}

TEST(ServeServer, ShardIdIsEchoedByHealthAndStats) {
  ServerOptions options;
  options.shard_id = "shard-7";
  ServerFixture fixture(options);
  EXPECT_EQ(fixture.request(R"({"op":"health"})").get_string("shard_id", ""),
            "shard-7");
  EXPECT_EQ(fixture.request(R"({"op":"stats"})").get_string("shard_id", ""),
            "shard-7");
}

TEST(ServeServer, StopCancelsSleepingJobsPromptly) {
  ServerOptions options;
  options.workers = 1;
  ServerFixture fixture(options);

  std::thread sleeper([&] {
    try {
      Client client("127.0.0.1", fixture.server->port());
      (void)client.request_raw(
          R"({"op":"job","kind":"sleep","ms":30000})");
    } catch (const std::exception&) {
      // Socket shut down mid-response is an acceptable outcome of stop().
    }
  });
  for (int i = 0; i < 200 && fixture.stat("queue", "in_flight") < 1.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const auto start = std::chrono::steady_clock::now();
  fixture.server->stop();  // must interrupt the 30 s sleep cooperatively
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  sleeper.join();
  EXPECT_LT(stop_seconds, 5.0);
}

}  // namespace
}  // namespace mrsc::serve
