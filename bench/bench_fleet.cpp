// Distributor-fleet benchmark: merged-ensemble wall clock vs shard count,
// plus one chaos configuration (both shards behind a seeded fault-injecting
// proxy) to price the retry/backoff overhead.
//
// Every repeat of every row starts fresh shards, each in its own process:
// no row inherits a result cache, a compiled-design memo or a warm
// connection from an earlier one, and each shard's CPU time is its own.
// A row reports the median wall time over the repeats with its min and max,
// the median CPU time a shard spent serving the ensemble (the mean over the
// row's shards, taken from when the shard listens to when it is told to
// stop), and the median CPU time of the client process (routing, merging
// and, in the chaos row, the proxies).
//
// Every repeat re-proves the fleet's headline contract while it measures:
// the merged report must be byte-identical to the single-shard golden run
// (`byte_identical` is part of the snapshot, so CI trips if the oracle ever
// goes false). Timings and attempt counts drift with the runner and the
// fault schedule; the value gate ignores them.
//
// Writes BENCH_fleet.json (path overridable via MRSC_BENCH_FLEET_JSON).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/chaos_proxy.hpp"
#include "fleet/fleet.hpp"
#include "serve/server.hpp"

namespace {

using namespace mrsc;

constexpr int kRepeats = 9;

struct Sample {
  double wall_ms = 0.0;
  double cpu_ms_per_shard = 0.0;
  double client_cpu_ms = 0.0;
  fleet::FleetCounters counters;
  bool byte_identical = false;
};

struct Row {
  std::string label;
  std::size_t shards = 0;
  double wall_ms = 0.0;
  double wall_ms_min = 0.0;
  double wall_ms_max = 0.0;
  double slices_per_s = 0.0;
  double cpu_ms_per_shard = 0.0;
  double client_cpu_ms = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;
  bool byte_identical = false;
};

double process_cpu_ms() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) * 1e-6;
}

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

void write_all(int fd, const void* data, std::size_t size) {
  if (write(fd, data, size) != static_cast<ssize_t>(size)) {
    throw std::runtime_error("bench_fleet: pipe write failed");
  }
}

void read_all(int fd, void* data, std::size_t size) {
  if (read(fd, data, size) != static_cast<ssize_t>(size)) {
    throw std::runtime_error("bench_fleet: shard process died");
  }
}

/// One mrsc_serve shard (2 workers) in a forked child process. Forks only
/// happen while the benchmark process runs no other thread.
class ShardProcess {
 public:
  ShardProcess() {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) {
      throw std::runtime_error("bench_fleet: pipe failed");
    }
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("bench_fleet: fork failed");
    if (pid_ == 0) {
      close(to_child[1]);
      close(from_child[0]);
      serve(to_child[0], from_child[1]);
    }
    close(to_child[0]);
    close(from_child[1]);
    control_ = to_child[1];
    report_ = from_child[0];
    read_all(report_, &port_, sizeof(port_));
  }

  ShardProcess(const ShardProcess&) = delete;
  ShardProcess& operator=(const ShardProcess&) = delete;

  ~ShardProcess() {
    if (pid_ < 0) return;
    try {
      (void)stop();
    } catch (const std::exception&) {
      // Unwinding from a failed run; the shard is already gone.
    }
  }

  [[nodiscard]] fleet::Endpoint endpoint() const {
    return {"127.0.0.1", port_};
  }

  /// Stops the shard; returns the CPU ms it spent since it started
  /// listening.
  double stop() {
    const char go = 's';
    double cpu_ms = 0.0;
    write_all(control_, &go, 1);
    read_all(report_, &cpu_ms, sizeof(cpu_ms));
    close(control_);
    close(report_);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return cpu_ms;
  }

 private:
  [[noreturn]] static void serve(int control, int report) {
    try {
      serve::ServerOptions options;
      options.workers = 2;
      serve::Server server(options);
      server.start();
      const std::uint16_t port = server.port();
      const double cpu0 = process_cpu_ms();
      write_all(report, &port, sizeof(port));
      char go = 0;
      (void)read(control, &go, 1);
      const double cpu_ms = process_cpu_ms() - cpu0;
      server.stop();
      write_all(report, &cpu_ms, sizeof(cpu_ms));
      _exit(0);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "bench_fleet shard: %s\n", error.what());
      _exit(1);
    }
  }

  pid_t pid_ = -1;
  int control_ = -1;
  int report_ = -1;
  std::uint16_t port_ = 0;
};

fleet::EnsembleSpec bench_spec() {
  fleet::EnsembleSpec spec;
  spec.design = "counter";
  spec.replicates = 32;
  spec.base_seed = 7;
  spec.t_end = 2.0;
  spec.omega = 100.0;
  return spec;
}

/// Runs the ensemble once on `shards` fresh shard processes. With `chaos`,
/// every shard sits behind a proxy that drops, delays, and truncates on a
/// seeded schedule; the proxies start after the shards are forked. An
/// empty `golden` is filled with the report.
Sample run_once(std::size_t shards, bool chaos, std::string& golden) {
  std::vector<std::unique_ptr<ShardProcess>> processes;
  std::vector<fleet::Endpoint> endpoints;
  for (std::size_t i = 0; i < shards; ++i) {
    processes.push_back(std::make_unique<ShardProcess>());
    endpoints.push_back(processes.back()->endpoint());
  }
  std::vector<std::unique_ptr<fleet::ChaosProxy>> proxies;
  if (chaos) {
    fleet::ChaosFaults faults;
    faults.drop = 0.15;
    faults.truncate = 0.15;
    faults.delay = 0.1;
    faults.delay_ms = 5.0;
    for (std::size_t i = 0; i < shards; ++i) {
      proxies.push_back(
          std::make_unique<fleet::ChaosProxy>(endpoints[i], faults, 11 + i));
      proxies.back()->start();
      endpoints[i] = {"127.0.0.1", proxies.back()->port()};
    }
  }

  fleet::FleetOptions options;
  options.shards = endpoints;
  options.max_attempts = chaos ? 10 : 4;
  options.backoff.base_ms = 2.0;
  options.backoff.cap_ms = 50.0;
  fleet::FleetClient client(options);
  const double cpu0 = process_cpu_ms();
  const auto start = std::chrono::steady_clock::now();
  const std::string report = fleet::run_ensemble(client, bench_spec());
  Sample sample;
  sample.wall_ms = elapsed_ms(start);
  sample.client_cpu_ms = process_cpu_ms() - cpu0;
  sample.counters = client.counters();
  if (golden.empty()) golden = report;
  sample.byte_identical = report == golden;

  for (const auto& proxy : proxies) proxy->stop();
  double cpu_ms = 0.0;
  for (const auto& process : processes) cpu_ms += process->stop();
  sample.cpu_ms_per_shard = cpu_ms / static_cast<double>(shards);
  return sample;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

Row measure(std::size_t shards, bool chaos, std::string& golden) {
  std::vector<Sample> samples;
  for (int r = 0; r < kRepeats; ++r) {
    samples.push_back(run_once(shards, chaos, golden));
  }
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> client;
  Row row;
  row.label = chaos ? "chaos" : "clean";
  row.shards = shards;
  row.byte_identical = true;
  for (const Sample& s : samples) {
    wall.push_back(s.wall_ms);
    cpu.push_back(s.cpu_ms_per_shard);
    client.push_back(s.client_cpu_ms);
    row.byte_identical = row.byte_identical && s.byte_identical;
  }
  row.wall_ms = median(wall);
  row.wall_ms_min = *std::min_element(wall.begin(), wall.end());
  row.wall_ms_max = *std::max_element(wall.begin(), wall.end());
  row.slices_per_s =
      static_cast<double>(bench_spec().replicates) / (row.wall_ms / 1000.0);
  row.cpu_ms_per_shard = median(cpu);
  row.client_cpu_ms = median(client);
  // Attempt counters come from the repeat whose wall time is the median.
  for (const Sample& s : samples) {
    if (s.wall_ms == row.wall_ms) {
      row.attempts = s.counters.attempts;
      row.retries = s.counters.retries;
      row.failures = s.counters.failures;
    }
  }
  return row;
}

std::string format_row(const Row& row) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "    {\"label\": \"%s\", \"shards\": %zu, \"wall_ms\": %.4f, "
      "\"wall_ms_min\": %.4f, \"wall_ms_max\": %.4f, "
      "\"slices_per_s\": %.2f, \"cpu_ms_per_shard\": %.4f, "
      "\"client_cpu_ms\": %.4f, \"attempts\": %llu, \"retries\": %llu, "
      "\"failures\": %llu, \"byte_identical\": %s}",
      row.label.c_str(), row.shards, row.wall_ms, row.wall_ms_min,
      row.wall_ms_max, row.slices_per_s, row.cpu_ms_per_shard,
      row.client_cpu_ms, static_cast<unsigned long long>(row.attempts),
      static_cast<unsigned long long>(row.retries),
      static_cast<unsigned long long>(row.failures),
      row.byte_identical ? "true" : "false");
  return buffer;
}

}  // namespace

int main() {
  std::printf("== fleet: merged ensemble vs shard count (%zu replicates, "
              "median of %d repeats on fresh shards)\n\n",
              bench_spec().replicates, kRepeats);

  // The first 1-shard run also produces the golden bytes every other run
  // is compared against.
  std::string golden;
  std::vector<Row> rows;
  rows.push_back(measure(1, false, golden));
  rows.push_back(measure(2, false, golden));
  rows.push_back(measure(4, false, golden));
  rows.push_back(measure(2, true, golden));

  std::printf("%-8s %7s %9s %9s %9s %13s %10s %10s %9s %8s %9s %6s\n",
              "label", "shards", "wall_ms", "min", "max", "slices_per_s",
              "cpu/shard", "client_cpu", "attempts", "retries", "failures",
              "bytes");
  bool all_identical = true;
  for (const Row& row : rows) {
    std::printf(
        "%-8s %7zu %9.2f %9.2f %9.2f %13.1f %10.2f %10.2f %9llu %8llu "
        "%9llu %6s\n",
        row.label.c_str(), row.shards, row.wall_ms, row.wall_ms_min,
        row.wall_ms_max, row.slices_per_s, row.cpu_ms_per_shard,
        row.client_cpu_ms, static_cast<unsigned long long>(row.attempts),
        static_cast<unsigned long long>(row.retries),
        static_cast<unsigned long long>(row.failures),
        row.byte_identical ? "same" : "DIFF");
    all_identical = all_identical && row.byte_identical;
  }
  std::printf("\n");

  const char* path_env = std::getenv("MRSC_BENCH_FLEET_JSON");
  const std::string path = path_env ? path_env : "BENCH_fleet.json";
  std::string json = "{\n  \"benchmark\": \"fleet_ensemble\",\n";
  json += "  \"design\": \"" + bench_spec().design + "\",\n";
  json += "  \"replicates\": " + std::to_string(bench_spec().replicates) +
          ",\n  \"repeats\": " + std::to_string(kRepeats) +
          ",\n  \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ",\n  \"rows\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    json += format_row(rows[r]);
    json += r + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << json;
  std::printf("report written to %s\n", path.c_str());

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: a merged report diverged from the golden "
                         "single-shard bytes\n");
    return 1;
  }
  return 0;
}
