#include "obs/status_server.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/mem.hpp"
#include "obs/proc_stats.hpp"
#include "util/net.hpp"

#if defined(WEAKKEYS_HAVE_NET)
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#define WEAKKEYS_HAVE_POSIX_SOCKETS 1
#endif

namespace weakkeys::obs {

namespace {

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// /status worker-liveness block for the multi-process cluster: configured vs
// alive workers, session reconnects, and per-worker link health (heartbeat
// RTT percentiles plus death count). Empty when no cluster ran, so the JSON
// stays unchanged for in-process studies.
std::string cluster_workers_json(const MetricsSnapshot& snap) {
  const std::uint64_t configured = snap.counter("cluster.workers");
  if (configured == 0) return "";
  std::string out =
      ",\"workers\":{\"configured\":" + std::to_string(configured);
  const auto alive = snap.gauges.find("cluster.workers_alive");
  out += ",\"alive\":" +
         std::to_string(alive != snap.gauges.end() ? alive->second : 0);
  out += ",\"reconnects\":" +
         std::to_string(snap.counter("cluster.reconnects"));
  out += ",\"per_worker\":[";
  constexpr const char* kPrefix = "cluster.worker.";
  const std::string kSuffix = ".rtt_us";
  bool first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.size() <= kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    const std::string id = name.substr(
        std::strlen(kPrefix),
        name.size() - std::strlen(kPrefix) - kSuffix.size());
    if (!first) out += ",";
    first = false;
    out += "{\"id\":\"" + json_escape(id) + "\"";
    out += ",\"rtt_count\":" + std::to_string(h.count);
    if (h.count > 0) {
      out += ",\"rtt_p50_us\":" + fmt_double(h.p50());
      out += ",\"rtt_p99_us\":" + fmt_double(h.p99());
      out += ",\"rtt_max_us\":" + std::to_string(h.max);
    }
    out += ",\"deaths\":" +
           std::to_string(
               snap.counter(std::string(kPrefix) + id + ".deaths"));
    out += "}";
  }
  out += "]}";
  return out;
}

// /status fleet block: rollups plus per-worker process stats merged from
// telemetry exports (the fleet.worker.<id>.* / fleet.* registry metrics
// published by obs::FleetAggregator). Empty until a worker has reported, so
// the JSON stays unchanged for in-process studies.
std::string fleet_status_json(const MetricsSnapshot& snap) {
  const auto reporting = snap.gauges.find("fleet.workers_reporting");
  if (reporting == snap.gauges.end() || reporting->second <= 0) return "";
  std::string out = ",\"fleet\":{\"workers_reporting\":" +
                    std::to_string(reporting->second);
  out += ",\"telemetry_snapshots\":" +
         std::to_string(snap.counter("fleet.telemetry_snapshots"));
  out += ",\"tasks_executed\":" +
         std::to_string(snap.counter("fleet.tasks_executed"));
  out += ",\"compute_us\":" + std::to_string(snap.counter("fleet.compute_us"));
  const auto rss = snap.gauges.find("fleet.rss_kb");
  if (rss != snap.gauges.end()) {
    out += ",\"rss_kb\":" + std::to_string(rss->second);
  }
  out += ",\"per_worker\":[";
  constexpr const char* kPrefix = "fleet.worker.";
  // Worker ids come from the gauge namespace — every reporting worker
  // publishes at least one fleet.worker.<id>.* gauge — and arrive grouped
  // because the snapshot maps are ordered.
  std::string last_id;
  bool first = true;
  for (const auto& [name, value] : snap.gauges) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    const std::size_t id_end = name.find('.', std::strlen(kPrefix));
    if (id_end == std::string::npos) continue;
    const std::string id =
        name.substr(std::strlen(kPrefix), id_end - std::strlen(kPrefix));
    if (id == last_id) continue;
    last_id = id;
    const std::string p = std::string(kPrefix) + id + ".";
    if (!first) out += ",";
    first = false;
    out += "{\"id\":\"" + json_escape(id) + "\"";
    for (const char* g : {"rss_kb", "peak_rss_kb", "cpu_user_us",
                          "cpu_sys_us", "queue_depth", "mem_live_kb",
                          "mem_peak_kb"}) {
      const auto it = snap.gauges.find(p + g);
      if (it != snap.gauges.end()) {
        out += ",\"" + std::string(g) + "\":" + std::to_string(it->second);
      }
    }
    for (const char* c : {"tasks_executed", "compute_us", "claims_found"}) {
      out += ",\"" + std::string(c) +
             "\":" + std::to_string(snap.counter(p + c));
    }
    out += "}";
  }
  out += "]}";
  return out;
}

// /status sampling-profiler block: tick/sample totals plus the top self-time
// frames from the profiler.self.<frame> rollup counters the sampler publishes
// every tick. Empty until the profiler has taken a sample, so the JSON stays
// unchanged for unprofiled runs.
std::string profile_status_json(const MetricsSnapshot& snap) {
  const std::uint64_t samples = snap.counter("profiler.samples");
  if (samples == 0) return "";
  std::string out = ",\"profile\":{\"ticks\":" +
                    std::to_string(snap.counter("profiler.ticks"));
  out += ",\"samples\":" + std::to_string(samples);
  constexpr const char* kPrefix = "profiler.self.";
  std::vector<std::pair<std::uint64_t, std::string>> frames;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind(kPrefix, 0) != 0) continue;
    frames.emplace_back(value, name.substr(std::strlen(kPrefix)));
  }
  std::sort(frames.begin(), frames.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  constexpr std::size_t kTopN = 10;
  if (frames.size() > kTopN) frames.resize(kTopN);
  out += ",\"top_self\":[";
  bool first = true;
  for (const auto& [count, frame] : frames) {
    if (!first) out += ",";
    first = false;
    out += "{\"frame\":\"" + json_escape(frame) +
           "\",\"samples\":" + std::to_string(count) + "}";
  }
  out += "]}";
  return out;
}

// /status memory block: live process RSS/peak sampled on request (fresher
// than the last monitor tick) plus per-subsystem attribution from the heap
// hooks when accounting is on. Empty when accounting never ran and /proc has
// nothing, so the JSON stays unchanged on unsupported platforms.
std::string memory_status_json() {
  const ProcSelfStats proc = sample_proc_self();
  const bool accounting = mem::enabled() || mem::totals().cumulative_bytes > 0;
  if (!proc.rss_available && !accounting) return "";
  std::string out = ",\"memory\":{";
  bool first = true;
  const auto field = [&](const std::string& key, std::int64_t value) {
    if (!first) out += ",";
    first = false;
    out += "\"" + key + "\":" + std::to_string(value);
  };
  if (proc.rss_available) field("rss_kb", proc.rss_kb);
  if (proc.peak_rss_available) field("peak_rss_kb", proc.peak_rss_kb);
  if (accounting) {
    const mem::Totals totals = mem::totals();
    field("tracked_live_bytes",
          static_cast<std::int64_t>(totals.live_bytes));
    field("tracked_peak_bytes",
          static_cast<std::int64_t>(totals.peak_bytes));
    field("tracked_cumulative_bytes",
          static_cast<std::int64_t>(totals.cumulative_bytes));
    field("allocations", static_cast<std::int64_t>(totals.allocations));
    if (mem::budget_bytes() > 0) {
      field("budget_bytes", static_cast<std::int64_t>(mem::budget_bytes()));
      out += ",\"budget_alarmed\":";
      out += totals.budget_alarmed ? "true" : "false";
    }
    out += ",\"by_label\":[";
    bool first_label = true;
    for (const auto& ls : mem::label_stats()) {
      if (ls.cumulative_bytes == 0) continue;
      if (!first_label) out += ",";
      first_label = false;
      out += "{\"label\":\"" + json_escape(ls.label) +
             "\",\"live_bytes\":" + std::to_string(ls.live_bytes) +
             ",\"peak_bytes\":" + std::to_string(ls.peak_bytes) +
             ",\"cumulative_bytes\":" + std::to_string(ls.cumulative_bytes) +
             ",\"allocations\":" + std::to_string(ls.allocations) + "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace

std::string prometheus_metric_name(const std::string& name) {
  std::string out = "weakkeys_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = prometheus_metric_name(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = prometheus_metric_name(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string prom = prometheus_metric_name(name);
    out += "# TYPE " + prom + " histogram\n";
    // Prometheus buckets are cumulative; ours are per-bucket.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cumulative += h.bucket_counts[i];
      const std::string le =
          i < h.bounds.size() ? std::to_string(h.bounds[i]) : "+Inf";
      out += prom + "_bucket{le=\"" + le +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += prom + "_sum " + std::to_string(h.sum) + "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
    // Pre-computed quantile estimates as plain gauges (the fixed-bucket
    // interpolation of MetricsSnapshot::HistogramValue::quantile); `_p50`
    // does not collide with the histogram's reserved suffixes.
    for (const auto& [suffix, q] :
         {std::pair<const char*, double>{"_p50", 0.50},
          {"_p90", 0.90},
          {"_p99", 0.99}}) {
      out += "# TYPE " + prom + suffix + " gauge\n";
      out += prom + suffix + " " + fmt_double(h.quantile(q)) + "\n";
    }
  }
  return out;
}

StatusServer::StatusServer(Telemetry& telemetry, StatusServerConfig config)
    : telemetry_(telemetry), config_(std::move(config)) {}

StatusServer::~StatusServer() { stop(); }

#if defined(WEAKKEYS_HAVE_POSIX_SOCKETS)

bool StatusServer::start() {
  if (running_.exchange(true)) return false;
  started_at_ = std::chrono::steady_clock::now();

  const int retries = config_.port == 0 ? 0 : std::max(config_.bind_retries, 0);
  int bound_port = -1;
  for (int offset = 0; offset <= retries; ++offset) {
    // The listener is CLOEXEC (util::net) so it never leaks into cluster
    // worker processes forked while the server is up.
    const int fd = util::net::listen_tcp(
        config_.bind_address,
        static_cast<std::uint16_t>(config_.port + offset), 16, &bound_port);
    if (fd >= 0) {
      listen_fd_ = fd;
      break;
    }
    if (errno == EINVAL) break;      // bad bind address: retrying won't help
    // EADDRINUSE (or anything else): try the next port.
  }

  if (listen_fd_ < 0 || bound_port < 0) {
    telemetry_.sink().warn(
        "status server: could not bind " + config_.bind_address + ":" +
        std::to_string(config_.port) + " (+" + std::to_string(retries) +
        " retries)");
    running_.store(false);
    return false;
  }
  port_.store(bound_port);
  stop_requested_.store(false);
  thread_ = std::thread(&StatusServer::accept_loop, this);
  return true;
}

void StatusServer::stop() {
  if (!running_.load()) return;
  stop_requested_.store(true);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_.store(-1);
  running_.store(false);
}

void StatusServer::accept_loop() {
  for (;;) {
    // Short poll timeout so stop() is honored promptly without needing a
    // self-pipe; the cost is one syscall per 50ms while idle.
    const bool ready =
        util::net::wait_readable(listen_fd_, std::chrono::milliseconds(50));
    if (stop_requested_.load()) return;
    if (!ready) continue;
    const int fd = util::net::accept_cloexec(listen_fd_);
    if (fd < 0) continue;
    handle_connection(fd);
    ::close(fd);
  }
}

void StatusServer::handle_connection(int fd) {
  // Requests are one short GET line; bound the read and give slow clients
  // a second before dropping them.
  timeval timeout{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find('\n') == std::string::npos) {
    // A cancelled run must not wait out a slow client's recv timeout.
    if (stop_requested_.load()) return;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t method_end = request.find(' ');
  if (method_end == std::string::npos) return;
  const std::size_t path_end = request.find(' ', method_end + 1);
  if (path_end == std::string::npos) return;
  const std::string method = request.substr(0, method_end);
  const std::string path =
      request.substr(method_end + 1, path_end - method_end - 1);
  std::string response;
  if (method == "GET") {
    response = respond(path);
  } else if (method == "HEAD") {
    // Headers only, per RFC: same status line and Content-Length as the
    // GET would carry, body stripped — `curl -I /healthz` and HEAD-probing
    // load balancers get liveness without paying for a /metrics body.
    response = respond(path);
    const std::size_t header_end = response.find("\r\n\r\n");
    if (header_end != std::string::npos) response.resize(header_end + 4);
  } else {
    response =
        "HTTP/1.0 405 Method Not Allowed\r\n"
        "Content-Length: 0\r\nConnection: close\r\n\r\n";
  }
  requests_.fetch_add(1);
  // write_full resumes partial writes and restarts EINTR — a large /metrics
  // body (thousands of cluster/worker series) previously risked truncation
  // when a signal landed mid-send.
  util::net::write_full(fd, response.data(), response.size());
}

#else  // !WEAKKEYS_HAVE_POSIX_SOCKETS

bool StatusServer::start() {
  telemetry_.sink().warn("status server: unsupported on this platform");
  return false;
}
void StatusServer::stop() {}
void StatusServer::accept_loop() {}
void StatusServer::handle_connection(int) {}

#endif

std::string StatusServer::respond(const std::string& path) const {
  std::string body;
  std::string content_type;
  if (path == "/metrics") {
    body = prometheus_text(telemetry_.metrics().snapshot());
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/healthz") {
    // Liveness for schedulers and the kill/resume harness: cheap, no
    // metrics serialization, flips to 503 the moment the run stops being
    // able to make progress.
    if (!config_.lifecycle) {
      return "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n"
             "Content-Length: 2\r\nConnection: close\r\n\r\nok";
    }
    const LifecycleStatus ls = config_.lifecycle();
    const std::string text = ls.healthy ? "ok" : ls.phase;
    const std::string status_line =
        ls.healthy ? "HTTP/1.0 200 OK" : "HTTP/1.0 503 Service Unavailable";
    return status_line + "\r\nContent-Type: text/plain\r\nContent-Length: " +
           std::to_string(text.size()) + "\r\nConnection: close\r\n\r\n" +
           text;
  } else if (path == "/status") {
    body = "{\"pid\":" +
           std::to_string(
#if defined(WEAKKEYS_HAVE_POSIX_SOCKETS)
               ::getpid()
#else
               0
#endif
                   ) +
           ",\"uptime_us\":" +
           std::to_string(elapsed_us(started_at_,
                                     std::chrono::steady_clock::now())) +
           ",\"requests_served\":" + std::to_string(requests_.load());
    if (config_.lifecycle) {
      const LifecycleStatus ls = config_.lifecycle();
      body += ",\"lifecycle\":{\"phase\":\"" + json_escape(ls.phase) +
              "\",\"healthy\":" + (ls.healthy ? "true" : "false") +
              ",\"stage\":\"" + json_escape(ls.stage) +
              "\",\"cancel_reason\":\"" + json_escape(ls.cancel_reason) +
              "\",\"deadline_remaining_s\":" +
              fmt_double(ls.deadline_remaining_s) + "}";
    }
    const MetricsSnapshot snap = telemetry_.metrics().snapshot();
    body += cluster_workers_json(snap);
    body += fleet_status_json(snap);
    body += profile_status_json(snap);
    body += memory_status_json();
    body += ",\"metrics\":" + telemetry_.metrics().to_json() + "}";
    content_type = "application/json";
  } else {
    return "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n"
           "Connection: close\r\n\r\n";
  }
  return "HTTP/1.0 200 OK\r\nContent-Type: " + content_type +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n" + body;
}

}  // namespace weakkeys::obs
