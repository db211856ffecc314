#include "obs/scrape.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/error.h"

namespace uniq::obs {

namespace {

/// Prometheus sample-value formatting: finite round-trip precision,
/// non-finite as +Inf/-Inf/NaN (which the exposition format does allow).
void appendValue(std::ostringstream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
    return;
  }
  if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  os << buf;
}

/// Escape a label value: backslash, double-quote, newline.
std::string labelEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string prometheusName(const std::string& name) {
  std::string out = "uniq_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheusText(const MetricsSnapshot& snapshot,
                           const TelemetryWindow* window,
                           const std::vector<SloStatus>* slo) {
  std::ostringstream os;
  for (const auto& c : snapshot.counters) {
    const std::string name = prometheusName(c.name) + "_total";
    os << "# TYPE " << name << " counter\n";
    os << name << " " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prometheusName(g.name);
    os << "# TYPE " << name << " gauge\n";
    os << name << " ";
    appendValue(os, g.value);
    os << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prometheusName(h.name);
    os << "# TYPE " << name << " histogram\n";
    // Cumulative buckets: underflow (v < lo) folds into the first finite
    // bucket since Prometheus buckets always start at -Inf; the +Inf
    // bucket equals _count, absorbing overflow.
    std::uint64_t cum = h.underflow;
    double edge = h.options.lo;
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      cum += h.counts[k];
      edge *= h.options.growth;
      os << name << "_bucket{le=\"";
      appendValue(os, edge);
      os << "\"} " << cum << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << name << "_sum ";
    appendValue(os, h.sum);
    os << "\n";
    os << name << "_count " << h.count << "\n";
  }
  if (window != nullptr) {
    for (const auto& r : window->counterRates) {
      const std::string name = prometheusName(r.name) + "_rate";
      os << "# TYPE " << name << " gauge\n";
      os << name << " ";
      appendValue(os, r.perSec);
      os << "\n";
    }
    for (const auto& hw : window->histogramWindows) {
      const std::string name = prometheusName(hw.name) + "_window_q";
      os << "# TYPE " << name << " gauge\n";
      const double qs[] = {0.50, 0.90, 0.99};
      const double vs[] = {hw.p50, hw.p90, hw.p99};
      for (int i = 0; i < 3; ++i) {
        os << name << "{q=\"";
        appendValue(os, qs[i]);
        os << "\"} ";
        appendValue(os, vs[i]);
        os << "\n";
      }
      // The quantiles of a window that saw nothing read 0; its count tells
      // that apart from a zero latency.
      const std::string seen = prometheusName(hw.name) + "_window_observations";
      os << "# TYPE " << seen << " gauge\n";
      os << seen << " " << hw.count << "\n";
    }
  }
  if (slo != nullptr && !slo->empty()) {
    os << "# TYPE uniq_slo_value gauge\n";
    for (const auto& st : *slo) {
      os << "uniq_slo_value{rule=\"" << labelEscape(st.rule.name) << "\"} ";
      appendValue(os, st.measurable ? st.value : 0.0);
      os << "\n";
    }
    os << "# TYPE uniq_slo_limit gauge\n";
    for (const auto& st : *slo) {
      os << "uniq_slo_limit{rule=\"" << labelEscape(st.rule.name) << "\"} ";
      appendValue(os, st.limit);
      os << "\n";
    }
    os << "# TYPE uniq_slo_breached gauge\n";
    for (const auto& st : *slo) {
      os << "uniq_slo_breached{rule=\"" << labelEscape(st.rule.name)
         << "\"} " << (st.breached ? 1 : 0) << "\n";
    }
  }
  return os.str();
}

std::string monitorView(const std::string& exposition) {
  // Flatten the exposition into name{labels} -> value.
  std::map<std::string, double> samples;
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    try {
      samples[line.substr(0, space)] = std::stod(line.substr(space + 1));
    } catch (const std::exception&) {
    }
  }
  const auto valueOr0 = [&samples](const std::string& key) {
    const auto it = samples.find(key);
    return it != samples.end() ? it->second : 0.0;
  };

  std::ostringstream os;
  os << std::setprecision(4) << "rates (events/s):\n";
  for (const auto& [key, value] : samples) {
    if (key.size() > 5 && key.compare(key.size() - 5, 5, "_rate") == 0 &&
        value > 0.0)
      os << "  " << key << " " << value << "\n";
  }
  os << "window quantiles (p50/p90/p99):\n";
  for (const auto& [key, value] : samples) {
    const auto tag = key.find("_window_q{q=\"0.5\"}");
    if (tag == std::string::npos) continue;
    const std::string base = key.substr(0, tag);
    const auto seen = samples.find(base + "_window_observations");
    os << "  " << base << " ";
    if (seen != samples.end() && seen->second == 0.0) {
      os << "-\n";
      continue;
    }
    const double p90 = valueOr0(base + "_window_q{q=\"0.9\"}");
    const double p99 = valueOr0(base + "_window_q{q=\"0.99\"}");
    os << value << " / " << p90 << " / " << p99 << "\n";
  }
  bool anyShard = false;
  for (const auto& [key, value] : samples) {
    if (key.rfind("uniq_serve_shard_", 0) != 0) continue;
    if (!anyShard) os << "shards:\n";
    anyShard = true;
    os << "  " << key << " " << value << "\n";
  }
  bool anySlo = false;
  const std::string breachedPrefix = "uniq_slo_breached{rule=\"";
  for (const auto& [key, value] : samples) {
    if (key.rfind(breachedPrefix, 0) != 0) continue;
    if (!anySlo) os << "slo:\n";
    anySlo = true;
    const std::size_t from = breachedPrefix.size();
    const std::string rule = key.substr(from, key.size() - from - 2);
    const double v = valueOr0("uniq_slo_value{rule=\"" + rule + "\"}");
    const double limit = valueOr0("uniq_slo_limit{rule=\"" + rule + "\"}");
    os << "  " << rule << ": " << (value != 0.0 ? "BREACHED" : "ok");
    os << " (value " << v << ", limit " << limit << ")\n";
  }
  return os.str();
}

ScrapeServer::ScrapeServer(ContentFn content, std::uint16_t port)
    : content_(std::move(content)) {
  UNIQ_REQUIRE(content_ != nullptr, "scrape server needs a content callback");
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  UNIQ_REQUIRE(listenFd_ >= 0, "scrape server: socket() failed");
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(port);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listenFd_, 8) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    UNIQ_REQUIRE(false, "scrape server: cannot bind 127.0.0.1:" +
                            std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serveLoop(); });
}

ScrapeServer::~ScrapeServer() { stop(); }

void ScrapeServer::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
}

void ScrapeServer::serveLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listenFd_;
    pfd.events = POLLIN;
    // Short poll timeout bounds how long stop() waits for the loop to
    // notice the flag.
    const int ready = ::poll(&pfd, 1, 50);
    if (ready <= 0) continue;
    const int client = ::accept(listenFd_, nullptr, nullptr);
    if (client < 0) continue;
    // Drain the request line + headers (one read is enough for the tiny
    // GETs we serve; anything else still gets a response).
    char buf[2048];
    const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
    (void)n;
    registry().counter("obs.scrape.requests").inc();
    std::string body;
    try {
      body = content_();
    } catch (const std::exception& e) {
      body = std::string("# scrape content error: ") + e.what() + "\n";
    }
    std::ostringstream resp;
    resp << "HTTP/1.1 200 OK\r\n"
         << "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
         << "Content-Length: " << body.size() << "\r\n"
         << "Connection: close\r\n\r\n"
         << body;
    const std::string out = resp.str();
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t w = ::send(client, out.data() + sent, out.size() - sent,
                               0);
      if (w <= 0) break;
      sent += static_cast<std::size_t>(w);
    }
    ::close(client);
  }
}

bool httpGet(std::uint16_t port, const std::string& path, std::string* body,
             std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = "socket() failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    if (error) *error = "connect to 127.0.0.1:" + std::to_string(port) +
                        " failed";
    return false;
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t w = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (w <= 0) {
      ::close(fd);
      if (error) *error = "send failed";
      return false;
    }
    sent += static_cast<std::size_t>(w);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) {
    if (error) *error = "malformed HTTP response";
    return false;
  }
  *body = response.substr(split + 4);
  return true;
}

}  // namespace uniq::obs
