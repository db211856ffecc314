#include "obs/scrape.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/error.h"

namespace uniq::obs {

namespace {

/// Prometheus sample-value formatting: finite values as printf's %.12g,
/// non-finite as +Inf/-Inf/NaN (which the exposition format does allow).
void appendValue(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 12);
  out.append(buf, res.ptr);
}

void appendCount(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

/// Append `name`, a space, `value` and a newline: one sample line.
void appendSample(std::string& out, const std::string& name, double value) {
  out += name;
  out += ' ';
  appendValue(out, value);
  out += '\n';
}

void appendSample(std::string& out, const std::string& name,
                  std::uint64_t value) {
  out += name;
  out += ' ';
  appendCount(out, value);
  out += '\n';
}

void appendType(std::string& out, const std::string& name, const char* type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// Append a label value escaped: backslash, double-quote, newline.
void appendLabel(std::string& out, const std::string& s) {
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
  // Appends to one string: this runs on every scrape, and a stream's
  // per-insertion overhead was most of its cost.
  std::string out;
  out.reserve(16384);
  for (const auto& c : snapshot.counters) {
    const std::string name = prometheusName(c.name) + "_total";
    appendType(out, name, "counter");
    appendSample(out, name, c.value);
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prometheusName(g.name);
    appendType(out, name, "gauge");
    appendSample(out, name, g.value);
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prometheusName(h.name);
    appendType(out, name, "histogram");
    // Cumulative buckets: underflow (v < lo) folds into the first finite
    // bucket since Prometheus buckets always start at -Inf; the +Inf
    // bucket equals _count, absorbing overflow.
    std::uint64_t cum = h.underflow;
    double edge = h.options.lo;
    for (std::size_t k = 0; k < h.counts.size(); ++k) {
      cum += h.counts[k];
      edge *= h.options.growth;
      out += name;
      out += "_bucket{le=\"";
      appendValue(out, edge);
      out += "\"} ";
      appendCount(out, cum);
      out += '\n';
    }
    appendSample(out, name + "_bucket{le=\"+Inf\"}", h.count);
    appendSample(out, name + "_sum", h.sum);
    appendSample(out, name + "_count", h.count);
  }
  if (window != nullptr) {
    for (const auto& r : window->counterRates) {
      const std::string name = prometheusName(r.name) + "_rate";
      appendType(out, name, "gauge");
      appendSample(out, name, r.perSec);
    }
    for (const auto& hw : window->histogramWindows) {
      const std::string name = prometheusName(hw.name) + "_window_q";
      appendType(out, name, "gauge");
      const double qs[] = {0.50, 0.90, 0.99};
      const double vs[] = {hw.p50, hw.p90, hw.p99};
      for (int i = 0; i < 3; ++i) {
        out += name;
        out += "{q=\"";
        appendValue(out, qs[i]);
        out += "\"} ";
        appendValue(out, vs[i]);
        out += '\n';
      }
      // The quantiles of a window that saw nothing read 0; its count tells
      // that apart from a zero latency.
      const std::string seen = prometheusName(hw.name) + "_window_observations";
      appendType(out, seen, "gauge");
      appendSample(out, seen, hw.count);
    }
  }
  if (slo != nullptr && !slo->empty()) {
    const auto appendRuleSeries = [&out, slo](const char* series,
                                              const auto& valueOf) {
      out += "# TYPE ";
      out += series;
      out += " gauge\n";
      for (const auto& st : *slo) {
        out += series;
        out += "{rule=\"";
        appendLabel(out, st.rule.name);
        out += "\"} ";
        appendValue(out, valueOf(st));
        out += '\n';
      }
    };
    appendRuleSeries("uniq_slo_value", [](const SloStatus& st) {
      return st.measurable ? st.value : 0.0;
    });
    appendRuleSeries("uniq_slo_limit",
                     [](const SloStatus& st) { return st.limit; });
    appendRuleSeries("uniq_slo_breached", [](const SloStatus& st) {
      return st.breached ? 1.0 : 0.0;
    });
  }
  return out;
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
  if (::pipe(wakeFds_) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    UNIQ_REQUIRE(false, "scrape server: pipe() failed");
  }
  thread_ = std::thread([this] { serveLoop(); });
}

ScrapeServer::~ScrapeServer() { stop(); }

void ScrapeServer::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // Wake serveLoop's poll; the pipe is empty, so the write cannot block.
  const char wake = 0;
  [[maybe_unused]] const ssize_t woke = ::write(wakeFds_[1], &wake, 1);
  if (thread_.joinable()) thread_.join();
  for (int* fd : {&listenFd_, &wakeFds_[0], &wakeFds_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void ScrapeServer::serveLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Sleep until a client connects or stop() writes to the wake pipe:
    // an idle server takes no CPU.
    pollfd pfds[2] = {{listenFd_, POLLIN, 0}, {wakeFds_[0], POLLIN, 0}};
    const int ready = ::poll(pfds, 2, -1);
    if (ready <= 0 || pfds[1].revents != 0) continue;
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
    const std::string out =
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
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
