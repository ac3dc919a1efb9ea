// mrsc_serve — long-running simulation service over the length-prefixed
// JSON protocol (docs/SERVE.md).
//
//   mrsc_serve [options]
//
//   --host A           IPv4 address to bind        (default 127.0.0.1)
//   --port P           TCP port; 0 = ephemeral     (default 0)
//   --port-file PATH   write the bound port to PATH (for scripts/CI that
//                      start the server on an ephemeral port)
//   --workers N        job worker threads          (default: hardware)
//   --queue N          admitted jobs beyond the workers before requests
//                      are rejected with "overload" (default 64)
//   --cache N          result-cache capacity, entries; 0 disables (default 256)
//   --cache-mb MB      result-cache capacity, payload megabytes (default 64)
//   --max-conns N      concurrent client connections (default 64)
//   --shard-id S       operator-assigned shard name echoed by the
//                      stats/health ops (fleet deployments; default "")
//
// The server runs until SIGTERM/SIGINT, then shuts down cooperatively
// (in-flight jobs are cancelled at their next poll point) and prints the
// final stats payload so every run ends with a machine-readable summary.
//
// Exit codes:
//   0  clean shutdown on signal
//   1  runtime error (bind failure, unwritable --port-file)
//   2  bad CLI usage
#include <csignal>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "tools/flags.hpp"

namespace {

using namespace mrsc;

volatile std::sig_atomic_t g_signal = 0;

void handle_signal(int signum) { g_signal = signum; }

struct CliOptions {
  serve::ServerOptions server;
  std::string port_file;
};

void usage() {
  std::fprintf(stderr,
               "usage: mrsc_serve [--host A] [--port P] [--port-file PATH]\n"
               "       [--workers N] [--queue N] [--cache N] [--cache-mb MB]\n"
               "       [--max-conns N] [--shard-id S]\n");
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  std::uint64_t port = 0;
  std::uint64_t cache_mb = options.server.cache_bytes >> 20;
  if (!tools::parse_flags("mrsc_serve", argc, argv,
                          {{"--host", &options.server.host},
                           {"--port", &port},
                           {"--port-file", &options.port_file},
                           {"--workers", &options.server.workers},
                           {"--queue", &options.server.queue_capacity},
                           {"--cache", &options.server.cache_entries},
                           {"--cache-mb", &cache_mb},
                           {"--max-conns", &options.server.max_connections},
                           {"--shard-id", &options.server.shard_id}},
                          nullptr)) {
    usage();
    return false;
  }
  if (port > 65535) {
    std::fprintf(stderr, "mrsc_serve: --port must be 0..65535\n");
    return false;
  }
  options.server.port = static_cast<std::uint16_t>(port);
  options.server.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  if (options.server.max_connections == 0) {
    std::fprintf(stderr, "mrsc_serve: --max-conns must be >= 1\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_cli(argc, argv, cli)) return 2;
  try {
    serve::Server server(cli.server);
    server.start();
    std::printf("mrsc_serve: listening on %s:%u (workers=%zu queue=%zu "
                "cache=%zu)\n",
                cli.server.host.c_str(), server.port(),
                cli.server.workers == 0
                    ? runtime::ThreadPool::default_worker_count()
                    : cli.server.workers,
                cli.server.queue_capacity, cli.server.cache_entries);
    std::fflush(stdout);
    if (!cli.port_file.empty()) {
      std::ofstream out(cli.port_file);
      if (!out) {
        std::fprintf(stderr, "mrsc_serve: cannot write %s\n",
                     cli.port_file.c_str());
        return 1;
      }
      out << server.port() << "\n";
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (g_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("mrsc_serve: signal %d, shutting down\n",
                static_cast<int>(g_signal));
    server.stop();
    std::printf("%s\n", server.stats_payload().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrsc_serve: %s\n", error.what());
    return 1;
  }
}
