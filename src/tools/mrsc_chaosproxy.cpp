// mrsc_chaosproxy — fault-injecting TCP proxy for chaos-testing the fleet
// (src/fleet/chaos_proxy.hpp; usage in docs/FLEET.md).
//
//   mrsc_chaosproxy --upstream-port P [options]
//
//   --upstream-port P  shard to proxy to (required)
//   --upstream-host A  shard address               (default 127.0.0.1)
//   --listen-host A    address to bind             (default 127.0.0.1)
//   --listen-port P    port to bind; 0 = ephemeral (default 0)
//   --port-file PATH   write the bound port to PATH
//   --seed S           fault-schedule seed         (default 1)
//   --drop X           P(close when a request arrives) (default 0)
//   --delay X          P(delay the response)       (default 0)
//   --delay-ms MS      delay length                (default 50)
//   --truncate X       P(cut the response mid-frame) (default 0)
//   --blackhole X      P(swallow everything, hold the connection) (default 0)
//
// Request k (arrival order) draws its fault from Rng(stream_seed(seed,k)),
// so a given (seed, probabilities) pair is a replayable fault schedule.
// Runs until SIGTERM/SIGINT.
//
// Exit codes:
//   0  clean shutdown on signal
//   1  runtime error (bind failure, unwritable --port-file)
//   2  bad CLI usage
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "fleet/chaos_proxy.hpp"
#include "tools/flags.hpp"

namespace {

using namespace mrsc;

volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int signum) { g_signal = signum; }

struct CliOptions {
  fleet::Endpoint upstream;
  std::uint64_t upstream_port = 0;
  std::string listen_host = "127.0.0.1";
  std::uint64_t listen_port = 0;
  std::string port_file;
  std::uint64_t seed = 1;
  fleet::ChaosFaults faults;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: mrsc_chaosproxy --upstream-port P [--upstream-host A]\n"
      "       [--listen-host A] [--listen-port P] [--port-file PATH]\n"
      "       [--seed S] [--drop X] [--delay X] [--delay-ms MS]\n"
      "       [--truncate X] [--blackhole X]\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  std::optional<tools::GivenFlags> given = tools::parse_flags(
      "mrsc_chaosproxy", argc, argv,
      {{"--upstream-port", &options.upstream_port},
       {"--upstream-host", &options.upstream.host},
       {"--listen-host", &options.listen_host},
       {"--listen-port", &options.listen_port},
       {"--port-file", &options.port_file},
       {"--seed", &options.seed},
       {"--drop", &options.faults.drop},
       {"--delay", &options.faults.delay},
       {"--delay-ms", &options.faults.delay_ms},
       {"--truncate", &options.faults.truncate},
       {"--blackhole", &options.faults.blackhole}},
      nullptr);
  if (!given || !given->contains("--upstream-port")) {
    usage();
    return false;
  }
  if (options.upstream_port == 0 || options.upstream_port > 65535) {
    std::fprintf(stderr,
                 "mrsc_chaosproxy: --upstream-port must be 1..65535\n");
    return false;
  }
  options.upstream.port = static_cast<std::uint16_t>(options.upstream_port);
  if (options.listen_port > 65535) {
    std::fprintf(stderr, "mrsc_chaosproxy: --listen-port must be 0..65535\n");
    return false;
  }
  const std::pair<const char*, double> probabilities[] = {
      {"--drop", options.faults.drop},
      {"--delay", options.faults.delay},
      {"--truncate", options.faults.truncate},
      {"--blackhole", options.faults.blackhole}};
  for (const auto& [flag, probability] : probabilities) {
    if (probability < 0.0 || probability > 1.0) {
      std::fprintf(stderr, "mrsc_chaosproxy: %s must be in [0, 1]\n", flag);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;
  try {
    fleet::ChaosProxy proxy(cli.upstream, cli.faults, cli.seed);
    proxy.start(cli.listen_host,
                static_cast<std::uint16_t>(cli.listen_port));
    std::printf(
        "mrsc_chaosproxy: %s:%u -> %s:%u (seed=%llu drop=%.2f delay=%.2f "
        "truncate=%.2f blackhole=%.2f)\n",
        cli.listen_host.c_str(), proxy.port(), cli.upstream.host.c_str(),
        cli.upstream.port, static_cast<unsigned long long>(cli.seed),
        cli.faults.drop, cli.faults.delay, cli.faults.truncate,
        cli.faults.blackhole);
    std::fflush(stdout);
    if (!cli.port_file.empty()) {
      std::ofstream out(cli.port_file);
      if (!out) {
        std::fprintf(stderr, "mrsc_chaosproxy: cannot write %s\n",
                     cli.port_file.c_str());
        return 1;
      }
      out << proxy.port() << "\n";
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf(
        "mrsc_chaosproxy: signal %d, %llu request(s) over %llu "
        "connection(s) proxied\n",
        static_cast<int>(g_signal),
        static_cast<unsigned long long>(proxy.requests()),
        static_cast<unsigned long long>(proxy.connections()));
    proxy.stop();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_chaosproxy: %s\n", error.what());
    return 1;
  }
}
