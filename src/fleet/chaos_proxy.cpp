#include "fleet/chaos_proxy.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstddef>

#include "util/rng.hpp"

namespace mrsc::fleet {

namespace {

/// Cut a truncated response after this many bytes: 4-byte header + 2
/// payload bytes, guaranteed mid-frame for any non-empty response.
constexpr std::size_t kTruncateAfterBytes = 6;

/// Sends the first `count` bytes of `response`'s frame, then stops.
void send_frame_prefix(int fd, const std::string& response,
                       std::size_t count) {
  const auto length = static_cast<std::uint32_t>(response.size());
  std::string frame = {static_cast<char>(length >> 24),
                       static_cast<char>(length >> 16),
                       static_cast<char>(length >> 8),
                       static_cast<char>(length)};
  frame += response;
  if (count > frame.size()) count = frame.size();
  std::size_t sent = 0;
  while (sent < count) {
    const ssize_t w = ::send(fd, frame.data() + sent, count - sent,
                             MSG_NOSIGNAL);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(w);
  }
}

/// Reads and discards everything from fd until EOF/error (black hole).
void drain_bytes(int fd) {
  char chunk[16384];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return;
    if (n < 0 && errno != EINTR) return;
  }
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kClean:
      return "clean";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kTruncate:
      return "truncate";
    case FaultKind::kBlackhole:
      return "blackhole";
  }
  return "unknown";
}

FaultKind decide_fault(const ChaosFaults& faults, std::uint64_t seed,
                       std::uint64_t index) {
  util::Rng rng(util::Rng::stream_seed(seed, index));
  const double u = rng.uniform();
  double edge = faults.drop;
  if (u < edge) return FaultKind::kDrop;
  edge += faults.delay;
  if (u < edge) return FaultKind::kDelay;
  edge += faults.truncate;
  if (u < edge) return FaultKind::kTruncate;
  edge += faults.blackhole;
  if (u < edge) return FaultKind::kBlackhole;
  return FaultKind::kClean;
}

struct ChaosProxy::Link {
  serve::Socket client;
  serve::Socket upstream;
  std::thread thread;  ///< relays request/response pairs; faults apply here
  std::atomic<bool> done{false};
};

ChaosProxy::ChaosProxy(Endpoint upstream, ChaosFaults faults,
                       std::uint64_t seed)
    : upstream_(std::move(upstream)), faults_(faults), seed_(seed) {}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start(const std::string& host, std::uint16_t port) {
  stopping_.store(false);
  listener_ = serve::listen_on(host, port, port_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ChaosProxy::stop() {
  if (stopping_.exchange(true)) return;
  // shutdown_both() wakes the blocked accept without touching fd_; close()
  // must wait until the accept thread is joined because accept_loop reads
  // listener_.fd() concurrently.
  listener_.shutdown_both();
  {
    std::lock_guard lock(links_mutex_);
    for (const auto& link : links_) {
      link->client.shutdown_both();
      link->upstream.shutdown_both();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  std::lock_guard lock(links_mutex_);
  for (const auto& link : links_) {
    if (link->thread.joinable()) link->thread.join();
  }
  links_.clear();
}

void ChaosProxy::accept_loop() {
  while (!stopping_.load()) {
    serve::Socket accepted = serve::accept_on(listener_.fd());
    if (!accepted.valid()) break;  // listener shut down
    connections_.fetch_add(1);

    auto link = std::make_unique<Link>();
    link->client = std::move(accepted);
    try {
      link->upstream = serve::connect_to(upstream_.host, upstream_.port);
    } catch (const std::exception&) {
      continue;  // upstream gone: the client sees its connection close
    }

    std::lock_guard lock(links_mutex_);
    // stop() shuts down the links it sees under this lock after raising
    // stopping_; a link published later would never be woken.
    if (stopping_.load()) break;
    // Reap finished links so a long-lived proxy does not accumulate
    // joined-out threads.
    for (auto it = links_.begin(); it != links_.end();) {
      if ((*it)->done.load()) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = links_.erase(it);
      } else {
        ++it;
      }
    }
    Link* raw = link.get();
    raw->thread = std::thread([this, raw] { relay(*raw); });
    links_.push_back(std::move(link));
  }
}

void ChaosProxy::relay(Link& link) {
  const int client = link.client.fd();
  const int upstream = link.upstream.fd();
  std::string request;
  std::string response;
  try {
    while (serve::read_frame(client, request)) {
      const FaultKind fault =
          decide_fault(faults_, seed_, requests_.fetch_add(1));
      if (fault == FaultKind::kDrop) break;
      if (fault == FaultKind::kBlackhole) {
        // Nothing ever flows back; park until the client or stop() ends
        // the connection.
        drain_bytes(client);
        break;
      }
      if (fault == FaultKind::kDelay) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(faults_.delay_ms));
      }
      serve::write_frame(upstream, request);
      if (!serve::read_frame(upstream, response)) break;  // upstream left
      if (fault == FaultKind::kTruncate) {
        send_frame_prefix(client, response, kTruncateAfterBytes);
        break;
      }
      serve::write_frame(client, response);
    }
  } catch (const std::exception&) {
    // Torn framing on either side ends this connection only.
  }
  link.client.shutdown_both();
  link.upstream.shutdown_both();
  link.done.store(true);
}

}  // namespace mrsc::fleet
