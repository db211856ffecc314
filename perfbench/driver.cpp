// End-to-end benchmark driver for the UNIQ libraries.
//
//   uniq_perfbench --workload serve-jobs|query --seed N
//                  --seconds S --trace 0|1 [--tiny] [--out-dir DIR]
//                  [--inputs-digest]
//
// Every input is generated here with `sim` from the seed; the libraries only
// see the generated captures and recordings. Each workload runs a fixed,
// seeded list of operations sized from --seconds (not a time-boxed loop), so
// every run's samples have the same make-up. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
// end-to-end metrics with the program's tracing switched off; --trace 1
// re-runs the list with tracing on, adds the benchmark's own spans around
// each public call, writes a Chrome trace into --out-dir, and prints the
// per-layer metrics instead. Any failed output check makes the exit code 1.
// See perfbench/README.md for the metric definitions.

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/aoa.h"
#include "core/pipeline.h"
#include "core/table_io.h"
#include "dsp/signal_generators.h"
#include "eval/metrics.h"
#include "head/hrtf_database.h"
#include "head/subject.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batch_aoa.h"
#include "serve/calibration_service.h"
#include "serve/table_cache.h"
#include "sim/fault_injector.h"
#include "sim/hardware_model.h"
#include "sim/measurement_session.h"
#include "sim/recorder.h"
#include "sim/room_model.h"

namespace fs = std::filesystem;
using namespace uniq;

namespace {

// ---------------------------------------------------------------- basics --

double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t hardwareThreads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : eval::percentile(v, p);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t counterValue(const char* name) {
  return obs::registry().counter(name).value();
}

// --------------------------------------------------------- host speed --

/// Host-speed reference. The shared VM this benchmark is tuned on loses a
/// varying share of its vCPU time to other tenants, changing every few
/// seconds and staying high or low for minutes; that moves every wall-clock
/// time by more than any bound a benchmark can set. So a real-time sampler
/// thread times a fixed slice of the benchmark's own code every kInterval
/// while the workload runs: 128 radix-2 FFTs of 2048 points in a 32 KiB
/// buffer (about 10 ms, 1% of a 4-core host). Being real-time it never
/// waits behind the program's threads, and its buffer stays in the core's
/// private cache, so neither the program's thread count nor its memory
/// traffic moves the slice; time the host takes away does. The run's
/// end-to-end times are scaled by kNominalMs / (median slice time): they
/// read as on a host where a slice takes kNominalMs, and a change to the
/// program moves them by the same factor as the raw times.
class HostSpeed {
 public:
  /// About the median slice time of a 4-vCPU Intel Xeon VM (9-13 ms).
  static constexpr double kNominalMs = 10.0;

  HostSpeed() : sampler_([this] { sample(); }) {}
  ~HostSpeed() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    sampler_.join();
  }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Median slice time so far (ms); kNominalMs before the first slice.
  double medianMs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ms_.empty() ? kNominalMs : eval::median(ms_);
  }

 private:
  static constexpr std::size_t kSize = 2048, kRepeats = 128;
  static constexpr std::chrono::milliseconds kInterval{200};

  void sample() {
    sched_param param{};
    param.sched_priority = 1;
    if (pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) != 0)
      std::cerr << "host-speed sampler runs at normal priority\n";
    std::vector<std::complex<double>> buf(kSize);
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      const double t0 = nowSec();
      for (std::size_t r = 0; r < kRepeats; ++r) {
        for (std::size_t i = 0; i < kSize; ++i)
          buf[i] = {double(i % 7) - 3.0, double((i + r) % 5) - 2.0};
        fft(buf.data());
      }
      const double ms = (nowSec() - t0) * 1e3;
      lock.lock();
      ms_.push_back(ms);
      sink_ += buf[1].real();  // keeps the FFTs observable
      cv_.wait_for(lock, kInterval, [this] { return stop_; });
    }
  }

  /// In-place iterative radix-2 FFT of kSize points.
  static void fft(std::complex<double>* a) {
    for (std::size_t i = 1, j = 0; i < kSize; ++i) {
      std::size_t bit = kSize >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(a[i], a[j]);
    }
    for (std::size_t len = 2; len <= kSize; len <<= 1) {
      const double ang = -2.0 * kPi / double(len);
      const std::complex<double> step(std::cos(ang), std::sin(ang));
      for (std::size_t i = 0; i < kSize; i += len) {
        std::complex<double> w(1.0, 0.0);
        for (std::size_t k = 0; k < len / 2; ++k, w *= step) {
          const auto u = a[i + k], v = a[i + k + len / 2] * w;
          a[i + k] = u + v;
          a[i + k + len / 2] = u - v;
        }
      }
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> ms_;
  double sink_ = 0.0;
  std::thread sampler_;  // last: starts once the members above exist
};

/// Closed-loop throughput of concurrent clients: the sum of each client's
/// ops over its own busy time. Unlike ops / wall, it does not charge the
/// drain at the end, when some clients have run out of work and idle.
struct ClientRates {
  std::vector<double> busySec;
  std::vector<std::size_t> ops;
  double throughput() const {
    double sum = 0.0;
    for (std::size_t c = 0; c < busySec.size(); ++c)
      if (busySec[c] > 0.0) sum += double(ops[c]) / busySec[c];
    return sum;
  }
};

/// Runs `fn(client)` on `clients` threads; `fn` returns its op count. The
/// first exception a client throws is rethrown here after all have joined.
ClientRates runClients(std::size_t clients,
                       const std::function<std::size_t(std::size_t)>& fn) {
  ClientRates rates;
  rates.busySec.assign(clients, 0.0);
  rates.ops.assign(clients, 0);
  std::vector<std::exception_ptr> errors(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      const double t0 = nowSec();
      try {
        rates.ops[c] = fn(c);
      } catch (...) {
        errors[c] = std::current_exception();
      }
      rates.busySec[c] = nowSec() - t0;
    });
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return rates;
}

/// Benchmark-side span around one public call; records only when tracing
/// is on (the --trace 1 pass).
#define BENCH_SPAN(name) ::uniq::obs::Span UNIQ_OBS_CONCAT(benchSpan_, __LINE__)(name)

// --------------------------------------------------------------- results --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ops attempted and failed. An op fails when any output check on it fails
/// (a job that ends rejected, cancelled, expired or `failed` fails its
/// check), so failed / attempted is the fail ratio over ops.
class Outcome {
 public:
  /// Count one op with a single check; a failure is logged as `what` +
  /// `detail`.
  void attempt(bool ok, std::string_view what, std::string_view detail = {}) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 5)
        std::cerr << "check failed: " << what << detail << "\n";
    }
  }
  /// Count the checks gathered in `checks` as one op, failed if any failed.
  void attemptOp(const Outcome& checks) {
    ++attempted_;
    if (checks.failed_ > 0) ++failed_;
  }
  /// Add another client's ops.
  void merge(const Outcome& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string formatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(10) << v;
  return out.str();
}

void printResult(const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted()
      << ", \"failed\": " << outcome.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << formatNumber(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// FNV-1a over the bytes of the generated inputs, printed by
/// --inputs-digest so a test can pin that a seed reproduces its inputs.
class Digest {
 public:
  void add(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) h_ = (h_ ^ p[i]) * 1099511628211ULL;
  }
  void add(double v) { add(&v, sizeof v); }
  void add(const std::vector<double>& v) {
    add(v.data(), v.size() * sizeof(double));
  }
  void add(const sim::CalibrationCapture& c) {
    add(c.sampleRate);
    add(c.sourceSignal);
    for (const auto& stop : c.stops) {
      add(stop.imuAngleDeg);
      add(stop.recording.left);
      add(stop.recording.right);
    }
  }
  std::string hex() const {
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << h_;
    return out.str();
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------- checks --

bool finiteAll(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

/// A servable table: 181 far-field degrees, every sample and tap finite.
bool tableValid(const core::HrtfTable& table) {
  const auto& far = table.farTable();
  if (far.byDegree.size() != 181 || far.tapLeftSamples.size() != 181 ||
      far.tapRightSamples.size() != 181)
    return false;
  for (const auto& h : far.byDegree)
    if (h.left.empty() || h.right.empty() || !finiteAll(h.left) ||
        !finiteAll(h.right))
      return false;
  return finiteAll(far.tapLeftSamples) && finiteAll(far.tapRightSamples);
}

bool angleValid(double deg) {
  return std::isfinite(deg) && deg >= 0.0 && deg <= 180.0;
}

// ---------------------------------------------------------------- inputs --

constexpr double kSampleRate = 48000.0;
/// eval::ExperimentConfig's population seed for the paper's study.
constexpr std::uint64_t kStudyPopulationSeed = 2021;

/// One simulated user: ground-truth subject plus what the phone captured.
struct UserInput {
  head::Subject subject;
  std::shared_ptr<const sim::CalibrationCapture> capture;
};

/// `count` users drawn from the population `populationSeed` (default: from
/// `seed`), each captured with measurement noise seeded from `seed`.
std::vector<UserInput> makeUsers(std::size_t count, std::uint64_t seed,
                                 std::uint64_t populationSeed = 0) {
  const auto subjects = head::makePopulation(
      count, populationSeed ? populationSeed : mix(seed, 1));
  std::vector<UserInput> users(count);
  common::parallelFor(0, count, [&](std::size_t i) {
    sim::MeasurementSessionOptions opts;
    opts.noiseSeed = mix(seed, 100 + i);
    const sim::MeasurementSession session(opts);
    users[i].subject = subjects[i];
    users[i].capture = std::make_shared<const sim::CalibrationCapture>(
        session.run(subjects[i], sim::defaultGesture()));
  });
  return users;
}

/// Far-field recordings of one subject rendered from its ground-truth HRTF
/// (the queries the AoA paths answer).
struct Recording {
  double truthDeg = 0.0;
  bool known = false;
  std::vector<double> left, right;
};

/// The known source: the phone's 50 ms probe chirp.
std::vector<double> knownChirp() {
  return dsp::linearChirp(100.0, kSampleRate * 0.42,
                          static_cast<std::size_t>(0.05 * kSampleRate),
                          kSampleRate);
}

/// `count` recordings at stratified seeded angles in [5, 175] (one per
/// equal slice, so every seed covers the arc alike); every `knownEvery`-th
/// one (0 = none) plays the known chirp, the rest 100 ms of fresh ambient
/// white noise each.
std::vector<Recording> makeRecordings(const head::Subject& subject,
                                      std::size_t count,
                                      std::size_t knownEvery,
                                      std::uint64_t seed) {
  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kSampleRate;
  const head::HrtfDatabase truth(subject, dbOpts);
  sim::HardwareModel::Options hwOpts;
  hwOpts.sampleRate = kSampleRate;
  const sim::HardwareModel hardware(hwOpts);
  sim::RoomModel::Options roomOpts;
  roomOpts.sampleRate = kSampleRate;
  roomOpts.seed = mix(seed, 11);
  const sim::RoomModel room(roomOpts);
  sim::BinauralRecorder::Options recOpts;
  recOpts.snrDb = 25.0;
  const sim::BinauralRecorder recorder(truth, hardware, room, recOpts);
  Pcg32 rng(mix(seed, 13));
  std::vector<Recording> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto& r = out[i];
    const double slice = 170.0 / double(count);
    r.truthDeg = 5.0 + slice * (double(i) + rng.uniform(0.0, 1.0));
    r.known = knownEvery > 0 && i % knownEvery == 0;
    const auto source =
        r.known ? knownChirp()
                : dsp::whiteNoise(std::size_t(0.1 * kSampleRate), rng, 0.25);
    const auto rec = recorder.recordFarField(r.truthDeg, source, rng, r.known);
    r.left = rec.left;
    r.right = rec.right;
  }
  return out;
}

// --------------------------------------------------------------- quality --

/// Ground-truth far-field table per subject, for the HRIR correlation.
core::FarFieldTable truthFarTable(const head::Subject& subject) {
  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = kSampleRate;
  const head::HrtfDatabase truth(subject, dbOpts);
  return core::farTableFromDatabase(truth);
}

/// Mean far-field HRIR correlation (both ears, every 5 degrees) against
/// ground truth: the paper's Fig. 18 metric.
double hrirCorr(const core::FarFieldTable& est,
                const core::FarFieldTable& truth) {
  std::vector<double> sims;
  for (double a = 0.0; a <= 180.0; a += 5.0)
    sims.push_back(eval::hrirSimilarity(est.at(a), truth.at(a)));
  return eval::mean(sims);
}

/// Unknown-source AoA accuracy (paper Fig. 22) of the tables a workload
/// produced or served, against the subjects' ground-truth tables on the same
/// recordings. Subjects differ a lot in how well any table localizes them;
/// the ratio of the two hit counts cancels most of that, leaving what the
/// personalization kept.
struct AoaScore {
  static constexpr double kHitDeg = 10.0;
  std::vector<double> errDeg;  ///< with the produced table
  std::size_t hits = 0;        ///< produced-table answers within kHitDeg
  std::size_t truthHits = 0;   ///< ground-truth-table answers within kHitDeg

  void add(double errDeg, double truthErrDeg) {
    this->errDeg.push_back(errDeg);
    hits += errDeg <= kHitDeg;
    truthHits += truthErrDeg <= kHitDeg;
  }
  void merge(const AoaScore& o) {
    errDeg.insert(errDeg.end(), o.errDeg.begin(), o.errDeg.end());
    hits += o.hits;
    truthHits += o.truthHits;
  }
  double vsTruth() const { return ratio(double(hits), double(truthHits)); }
};

/// Absolute unknown-source AoA error of one recording with `estimator`.
double aoaError(const core::AoaEstimator& estimator, const Recording& r,
                Outcome& outcome) {
  const auto est = estimator.estimateUnknown(r.left, r.right);
  outcome.attempt(angleValid(est.angleDeg), "probe AoA out of range");
  return angularDistanceDeg(est.angleDeg, r.truthDeg);
}

/// Scores `table` and the subject's `truth` table on the probe recordings.
void scoreAoa(const core::FarFieldTable& table,
              const core::FarFieldTable& truth,
              const std::vector<Recording>& probes, AoaScore& score,
              Outcome& outcome) {
  const core::AoaEstimator personal(table), reference(truth);
  for (const auto& r : probes)
    score.add(aoaError(personal, r, outcome),
              aoaError(reference, r, outcome));
}

/// Phone-localization errors (paper Fig. 17): fused stop angles against
/// the capture's ground-truth trajectory.
std::vector<double> localizationErrors(const core::PersonalHrtf& personal,
                                       const sim::CalibrationCapture& capture) {
  std::vector<double> errs;
  const auto& trajectory = capture.truth.trajectory;
  for (const auto& stop : personal.fusion.stops)
    if (stop.localized && stop.sourceIndex < trajectory.size())
      errs.push_back(angularDistanceDeg(
          trajectory[stop.sourceIndex].trueAngleDeg, stop.angleDeg));
  return errs;
}

// ---------------------------------------------------------------- traces --

struct TraceSummary {
  std::size_t spans = 0;
  std::map<std::string, double> selfSec;  ///< by layer
};

std::string layerOf(const std::string& span) {
  const auto head = span.substr(0, span.find('.'));
  if (head == "serve") return "serve";
  if (head == "stream") return "stream";
  if (head == "sim") return "sim";
  return "core";  // pipeline.*, extract.*, dsf.*, nearfield.*, aoa.*, core.*
}

/// Self time per layer: each span's duration minus the part of it covered
/// by its children (same-thread nesting), summed over every thread.
TraceSummary summarizeTrace(const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const auto& s : spans)
    if (s.parent != 0)
      children[s.parent].push_back({s.startUs, s.startUs + s.durUs});
  TraceSummary out;
  out.spans = spans.size();
  for (const auto& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double curLo = 0.0, curHi = -1.0;
      for (const auto& [lo, hi] : iv) {
        if (lo > curHi) {
          if (curHi > curLo) covered += curHi - curLo;
          curLo = lo;
          curHi = hi;
        } else {
          curHi = std::max(curHi, hi);
        }
      }
      if (curHi > curLo) covered += curHi - curLo;
    }
    out.selfSec[layerOf(s.name)] += std::max(0.0, s.durUs - covered) * 1e-6;
  }
  return out;
}

// ---------------------------------------------------------- run context --

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool tiny = false;
  bool digestOnly = false;  ///< print the inputs' digest, run nothing
  std::string outDir = ".bench_out";
};

/// Per-calibration layer data gathered from RunReports.
struct StageSamples {
  std::map<std::string, std::vector<double>> ms;
  std::vector<double> iterations, rejected;

  void add(const obs::RunReport& report) {
    for (const char* stage :
         {"extract", "fusion", "nearfield", "nearfar", "gesture"}) {
      const auto* s = report.find(stage);
      ms[stage].push_back(s ? s->wallMs : 0.0);
    }
    const auto* fusion = report.find("fusion");
    iterations.push_back(fusion ? fusion->value("iterations") : 0.0);
    rejected.push_back(fusion ? fusion->value("rejected") : 0.0);
  }
};

/// Registry counters read around the traced pass.
struct CounterWindow {
  std::uint64_t transforms = 0, hits = 0, misses = 0, tasks = 0, stops = 0,
                rejected = 0;
  static CounterWindow read() {
    return {counterValue("fft.transforms"), counterValue("fft.plan.hits"),
            counterValue("fft.plan.misses"), counterValue("pool.tasks"),
            counterValue("stream.stops.ingested"),
            counterValue("serve.jobs.rejected")};
  }
  CounterWindow since(const CounterWindow& before) const {
    return {transforms - before.transforms, hits - before.hits,
            misses - before.misses,         tasks - before.tasks,
            stops - before.stops,           rejected - before.rejected};
  }
};

/// Everything a workload reports; unset per-layer values stay 0 (the layer
/// did not run in that workload's measured pass).
struct Report {
  std::string inputDigest;  ///< set instead of metrics under --inputs-digest
  // end to end
  double setupSec = 0.0;    ///< raw; scaled by the host speed when printed
  double peakRssMb = 0.0;  ///< after set-up and the measured pass
  double hostRefMs = HostSpeed::kNominalMs;  ///< HostSpeed::medianMs()
  double opsPerSec = 0.0;  ///< raw, as opMsP50
  double opMsP50 = 0.0;
  double hrirCorr = 0.0;
  AoaScore aoa;
  // per layer (values keyed by the BENCHMARK.json names)
  std::map<std::string, double> layer;
};

/// obs.trace_overhead_ratio: per-op latency sum of the traced pass over
/// that of the same ops untraced, where the untraced passes ran just before
/// (`before`) and just after (`after`) it, so warm-up and drift cancel.
double overheadRatio(const std::vector<double>& before,
                     const std::vector<double>& traced,
                     const std::vector<double>& after) {
  double untraced = 0.0, tracedSum = 0.0;
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    untraced += 0.5 * (before[i] + after[i]);
    tracedSum += traced[i];
  }
  return ratio(tracedSum, untraced);
}

void addStageLayers(Report& rep, const StageSamples& st,
                    const CounterWindow& cw, double ops) {
  for (const auto& [stage, v] : st.ms)
    rep.layer["core." + stage + ".ms"] = pct(v, 50);
  rep.layer["core.fusion.iterations"] = eval::mean(st.iterations);
  rep.layer["core.fusion.rejected_stops"] = eval::mean(st.rejected);
  rep.layer["dsp.fft.transforms"] = ratio(double(cw.transforms), ops);
  rep.layer["dsp.fft.plan_hit_ratio"] =
      ratio(double(cw.hits), double(cw.hits + cw.misses));
  rep.layer["common.pool.tasks"] = ratio(double(cw.tasks), ops);
}

/// Runs `setup` `reps` times, keeps the last product, and returns the
/// median wall time. Each repetition first frees the previous product, so
/// the process never holds two sets of inputs (peak_rss_mb).
template <typename T>
double timedSetup(int reps, const std::function<T()>& setup, T& product) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    // Freed by destruction (reverse member order), not by move-assignment
    // (member order): query's engine must go before the cache it reads.
    { T previous = std::move(product); }
    const double t0 = nowSec();
    product = setup();
    times.push_back(nowSec() - t0);
  }
  return eval::median(times);
}

// ------------------------------------------------------------ serve-jobs --

enum class JobKind { kBatch, kFault, kStreaming };

struct ServeInputs {
  std::vector<UserInput> users;  ///< one distinct user per job
  std::vector<JobKind> kinds;
  std::vector<std::shared_ptr<const sim::CalibrationCapture>> submitted;
  std::unique_ptr<serve::CalibrationService> service;
};

std::string userId(std::size_t i) { return "user" + std::to_string(i); }

/// Kind of job `i`. The list repeats groups of four: fault, batch,
/// streaming, batch. Every fourth capture is fault-injected, as
/// `uniq serve-batch --fault KIND` does by default (`--fault-every 4`,
/// `i % 4 == 0`). `uniq serve-load` alternates batch and streaming
/// submissions 1:1; here that alternation restarts after each faulted job,
/// which keeps the list mostly batch: half clean batch jobs, a quarter
/// streaming.
JobKind jobKind(std::size_t i) {
  switch (i % 4) {
    case 0: return JobKind::kFault;
    case 2: return JobKind::kStreaming;
    default: return JobKind::kBatch;
  }
}

Report runServeJobs(const Config& cfg, Outcome& outcome) {
  const std::size_t clients = hardwareThreads();
  // Eight groups of four jobs per 30 s of run (a streaming job costs about
  // four batch jobs).
  const std::size_t groups =
      cfg.tiny ? 1
               : std::max<std::size_t>(
                     1, std::size_t(std::lround(cfg.seconds * 8.0 / 30.0)));
  const std::size_t jobs = 4 * groups;
  const std::string persistDir =
      (fs::path(cfg.outDir) / "serve-jobs-tables").string();
  Report rep;
  ServeInputs in;
  HostSpeed host;
  rep.setupSec = timedSetup<ServeInputs>(
      cfg.tiny || cfg.trace ? 1 : 3,
      [&] {
        ServeInputs x;
        fs::remove_all(persistDir);
        fs::create_directories(persistDir);
        // Subjects of the fixed study population, as in query: a seeded
        // draw moved the median clean batch job by 25% between seeds, as
        // subjects differ in calibration cost. Capture noise and faults stay
        // seeded.
        x.users = makeUsers(jobs, mix(cfg.seed, 3), kStudyPopulationSeed);
        x.kinds.resize(jobs);
        for (std::size_t i = 0; i < jobs; ++i) x.kinds[i] = jobKind(i);
        // Severity 0.5, `uniq serve-batch`'s default and the moderate level
        // at which docs/ROBUSTNESS.md requires every fault class to end ok or
        // degraded, never failed; the classes take turns.
        const auto faults = sim::allFaultKinds();
        x.submitted.resize(jobs);
        common::parallelFor(0, jobs, [&](std::size_t i) {
          if (x.kinds[i] != JobKind::kFault) {
            x.submitted[i] = x.users[i].capture;
            return;
          }
          sim::FaultInjector injector(mix(cfg.seed, 300 + i));
          injector.add(faults[(i / 4) % faults.size()], 0.5);
          x.submitted[i] = std::make_shared<const sim::CalibrationCapture>(
              injector.apply(*x.users[i].capture));
        });
        // Queue and cache sized as `uniq serve-batch` sizes them for its
        // user count (2 x users, one table per user); 4 shards as
        // `uniq serve-load`'s default.
        serve::CalibrationServiceOptions opts;
        opts.workers = clients;
        opts.shards = 4;
        opts.maxQueued = 2 * jobs;
        opts.cacheCapacity = jobs;
        opts.persistDir = persistDir;
        x.service = std::make_unique<serve::CalibrationService>(opts);
        return x;
      },
      in);
  if (cfg.digestOnly) {
    Digest d;
    for (std::size_t i = 0; i < jobs; ++i) {
      d.add(double(in.kinds[i]));
      d.add(*in.submitted[i]);
    }
    rep.inputDigest = d.hex();
    return rep;
  }

  struct Pass {
    std::vector<double> latency, submitUs;
    std::vector<serve::JobResult> results;
    std::vector<bool> rejected;
    ClientRates rates;
  };
  // Closed loop: each client takes the next job of `list` only after its
  // previous one finished.
  auto runPass = [&](const std::vector<std::size_t>& list) {
    const std::size_t count = list.size();
    Pass p;
    p.latency.assign(jobs, 0.0);
    p.submitUs.assign(jobs, 0.0);
    p.results.resize(jobs);
    p.rejected.assign(jobs, false);
    std::atomic<std::size_t> next{0};
    p.rates = runClients(clients, [&](std::size_t) {
      std::size_t done = 0;
      for (std::size_t k; (k = next.fetch_add(1)) < count; ++done) {
        const std::size_t i = list[k];
        serve::JobOptions jo;
        jo.streaming = in.kinds[i] == JobKind::kStreaming;
        const double t0 = nowSec();
        std::uint64_t id = serve::kInvalidJobId;
        {
          BENCH_SPAN("serve.submit");
          id = in.service->submit(userId(i), in.submitted[i], jo);
        }
        p.submitUs[i] = (nowSec() - t0) * 1e6;
        if (id == serve::kInvalidJobId) {
          p.rejected[i] = true;
          continue;
        }
        {
          BENCH_SPAN("serve.wait");
          p.results[i] = in.service->wait(id);
        }
        p.latency[i] = nowSec() - t0;
      }
      return done;
    });
    return p;
  };

  std::vector<std::size_t> all(jobs), warm;
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (std::size_t i = 0; i < jobs && warm.size() < clients; ++i)
    if (in.kinds[i] == JobKind::kBatch) warm.push_back(i);
  // Warm-up: one clean batch job per client, untimed.
  if (!cfg.tiny) runPass(warm);
  Pass pass;
  if (!cfg.trace) {
    pass = runPass(all);
    rep.peakRssMb = peakRssMb();
  } else {
    // Untraced passes over the first two groups bracket the traced pass.
    const std::vector<std::size_t> bracket(
        all.begin(), all.begin() + 4 * std::min<std::size_t>(2, groups));
    const auto untracedBefore = runPass(bracket);
    obs::setTraceEnabled(true);
    obs::clearTrace();
    const auto before = CounterWindow::read();
    pass = runPass(all);
    const auto cw = CounterWindow::read().since(before);
    obs::setTraceEnabled(false);
    const auto untracedAfter = runPass(bracket);
    StageSamples stages;
    std::vector<double> queueMs, runMs, jobMs, submitUs, streamRunMs,
        streamMs;
    std::size_t streamed = 0;
    for (std::size_t i = 0; i < jobs; ++i) {
      submitUs.push_back(pass.submitUs[i]);
      if (pass.rejected[i]) continue;
      const auto& r = pass.results[i];
      if (in.kinds[i] == JobKind::kStreaming) {
        ++streamed;
        streamRunMs.push_back(r.runMs);
        streamMs.push_back(pass.latency[i] * 1e3);
        continue;
      }
      if (in.kinds[i] == JobKind::kBatch) {
        stages.add(r.report);
        queueMs.push_back(r.queueMs);
        runMs.push_back(r.runMs);
        jobMs.push_back(pass.latency[i] * 1e3);
      }
    }
    addStageLayers(rep, stages, cw, double(jobs));
    rep.layer["serve.submit_us_p66"] = pct(submitUs, 66);
    rep.layer["serve.queue_ms_p50"] = pct(queueMs, 50);
    rep.layer["serve.run_ms_p50"] = pct(runMs, 50);
    rep.layer["serve.job_ms_p50"] = pct(jobMs, 50);
    rep.layer["serve.rejected"] = double(cw.rejected);
    rep.layer["stream.job_ms_p50"] = pct(streamMs, 50);
    rep.layer["stream.run_ms_p50"] = pct(streamRunMs, 50);
    rep.layer["stream.stops_pushed_mean"] =
        ratio(double(cw.stops), double(streamed));
    auto bracketed = [&](const std::vector<double>& latency) {
      return std::vector<double>(latency.begin(),
                                 latency.begin() + bracket.size());
    };
    rep.layer["obs.trace_overhead_ratio"] =
        overheadRatio(bracketed(untracedBefore.latency),
                      bracketed(pass.latency), bracketed(untracedAfter.latency));
  }
  rep.hostRefMs = host.medianMs();

  // Output checks and fidelity (untimed).
  std::vector<double> corr(jobs, -1.0), streamCorr;
  std::vector<AoaScore> aoa(jobs);
  std::vector<Outcome> perJob(jobs);
  std::vector<double> batchMs;
  common::parallelFor(0, jobs, [&](std::size_t i) {
    const auto& r = pass.results[i];
    const bool ok = !pass.rejected[i] && r.state == serve::JobState::kDone &&
                    r.status != core::PipelineStatus::kFailed && r.table &&
                    tableValid(*r.table);
    perJob[i].attempt(ok, "job state ", serve::jobStateName(r.state));
    if (!ok) return;
    const auto truth = truthFarTable(in.users[i].subject);
    corr[i] = hrirCorr(r.table->farTable(), truth);
    if (in.kinds[i] == JobKind::kStreaming) return;
    const auto probes = makeRecordings(in.users[i].subject,
                                       cfg.tiny ? 8 : 10, 0,
                                       mix(cfg.seed, 400 + i));
    scoreAoa(r.table->farTable(), truth, probes, aoa[i], perJob[i]);
  });
  std::vector<double> batchCorr;
  for (std::size_t i = 0; i < jobs; ++i) {
    outcome.attemptOp(perJob[i]);
    if (corr[i] < 0.0) continue;
    if (in.kinds[i] == JobKind::kStreaming) {
      streamCorr.push_back(corr[i]);
    } else {
      batchCorr.push_back(corr[i]);
      rep.aoa.merge(aoa[i]);
    }
    // Run time, start to terminal: submit to terminal adds a queue wait
    // that is either near 0 or a whole job, depending on whether the job's
    // shard was busy (CalibrationService::pumpLocked starts no second
    // drainer for a shard that is running one), and its median over 16 jobs
    // moved by 0.21-0.25 (IQR / median) between seeds. It is the per-layer
    // serve.job_ms_p50; the idle workers show in ops_per_s.
    if (in.kinds[i] == JobKind::kBatch) batchMs.push_back(pass.results[i].runMs);
  }
  rep.opsPerSec = pass.rates.throughput();
  rep.opMsP50 = pct(batchMs, 50);
  rep.hrirCorr = eval::mean(batchCorr);
  if (cfg.trace) rep.layer["stream.hrir_corr"] = eval::mean(streamCorr);
  in.service.reset();
  fs::remove_all(persistDir);
  return rep;
}

// ----------------------------------------------------------------- query --

struct QueryInputs {
  std::vector<UserInput> subjects;
  std::vector<std::shared_ptr<const core::HrtfTable>> tables;
  std::vector<core::PipelineStatus> status;
  std::vector<double> locErrDeg;  ///< phone-localization errors (Fig. 17)
  std::vector<std::string> ids;       ///< by Zipf rank
  std::vector<int> subjectOf;         ///< by rank; -1 = never calibrated
  std::vector<std::size_t> calibrated;  ///< ranks with a table
  std::vector<std::vector<Recording>> recordings;  ///< per subject
  std::unique_ptr<serve::TableCache> cache;
  std::unique_ptr<serve::BatchAoaEngine> engine;
};

Report runQuery(const Config& cfg, Outcome& outcome) {
  const std::size_t clients = hardwareThreads();
  const std::size_t subjectCount = cfg.tiny ? 1 : 4;
  const std::size_t users = cfg.tiny ? 16 : 256;
  const std::size_t capacity = cfg.tiny ? 4 : 64;
  const double scale = cfg.tiny ? 0.002 : cfg.seconds / 30.0;
  const std::size_t lookupsPerClient =
      std::max<std::size_t>(50, std::size_t(std::lround(scale * 20000)));
  const std::size_t batchesPerClient =
      std::max<std::size_t>(2, std::size_t(std::lround(scale * 60)));
  // Fixed batch composition: one known-source chirp query and three
  // unknown-source noise queries for one user.
  constexpr std::size_t kBatchKnown = 1, kBatchUnknown = 3;
  constexpr std::size_t kRecordingsPerSubject = 96;
  const std::string persistDir =
      (fs::path(cfg.outDir) / "query-tables").string();

  Report rep;
  QueryInputs in;
  HostSpeed host;
  rep.setupSec = timedSetup<QueryInputs>(
      cfg.tiny || cfg.trace ? 1 : 3,
      [&] {
        QueryInputs x;
        fs::remove_all(persistDir);
        fs::create_directories(persistDir);
        // The served tables belong to a fixed study population (the
        // paper's volunteers play this role); with only four subjects a
        // seeded draw would swing the AoA fidelity between seeds. Capture
        // noise, recordings and scripts still come from the seed.
        x.subjects = makeUsers(subjectCount, mix(cfg.seed, 9),
                               kStudyPopulationSeed);
        x.status.resize(subjectCount);
        x.tables.resize(subjectCount);
        std::vector<std::vector<double>> locErr(subjectCount);
        const core::CalibrationPipeline pipeline;
        common::parallelFor(0, subjectCount, [&](std::size_t s) {
          auto personal = pipeline.run(*x.subjects[s].capture);
          locErr[s] = localizationErrors(personal, *x.subjects[s].capture);
          x.status[s] = personal.status;
          x.tables[s] = std::make_shared<const core::HrtfTable>(
              std::move(personal.table));
        });
        for (const auto& e : locErr)
          x.locErrDeg.insert(x.locErrDeg.end(), e.begin(), e.end());
        x.recordings.resize(subjectCount);
        common::parallelFor(0, subjectCount, [&](std::size_t s) {
          x.recordings[s] = makeRecordings(
              x.subjects[s].subject, kRecordingsPerSubject, 4,
              mix(cfg.seed, 500 + s));
        });
        serve::TableCacheOptions copts;
        copts.capacity = capacity;
        copts.persistDir = persistDir;
        copts.shards = 4;
        x.cache = std::make_unique<serve::TableCache>(copts);
        // Every fourth Zipf rank never calibrated (fallback tier), on every
        // seed alike so the tier mix does not move with the seed; the rest
        // share the subjects' tables, persisted to disk under their ids.
        x.ids.resize(users);
        x.subjectOf.resize(users);
        for (std::size_t r = 0; r < users; ++r) {
          x.ids[r] = std::string("u").append(std::to_string(r));
          const bool never = r % 4 == 3;
          x.subjectOf[r] = never ? -1 : int(r % subjectCount);
          if (never) continue;
          x.calibrated.push_back(r);
          x.cache->put(x.ids[r], x.tables[std::size_t(x.subjectOf[r])]);
        }
        x.engine = std::make_unique<serve::BatchAoaEngine>(*x.cache);
        // Flush the persisted tables now, so their write-back does not
        // land in the measured lookups.
        for (const auto& entry : fs::directory_iterator(persistDir)) {
          const int fd = ::open(entry.path().c_str(), O_RDONLY);
          if (fd >= 0) {
            ::fsync(fd);
            ::close(fd);
          }
        }
        return x;
      },
      in);

  // Seeded scripts, one per client.
  const ZipfSampler zipf(users, 1.0);
  std::vector<std::vector<std::uint32_t>> lookupScript(clients);
  struct Batch {
    std::size_t rank = 0;
    std::vector<std::size_t> recs;  ///< indices into the subject's list
  };
  std::vector<std::vector<Batch>> batchScript(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    Pcg32 rng(mix(cfg.seed, 600 + c));
    for (std::size_t k = 0; k < lookupsPerClient; ++k)
      lookupScript[c].push_back(std::uint32_t(zipf.sample(rng)));
    for (std::size_t b = 0; b < batchesPerClient; ++b) {
      Batch batch;
      batch.rank = in.calibrated[rng.nextBounded(
          std::uint32_t(in.calibrated.size()))];
      // Recordings 0, 4, 8, ... play the known chirp (knownEvery = 4).
      for (std::size_t k = 0; k < kBatchKnown; ++k)
        batch.recs.push_back(4 * rng.nextBounded(kRecordingsPerSubject / 4));
      for (std::size_t k = 0; k < kBatchUnknown; ++k)
        batch.recs.push_back(1 + 4 * rng.nextBounded(kRecordingsPerSubject / 4) +
                             rng.nextBounded(3));
      batchScript[c].push_back(std::move(batch));
    }
  }
  if (cfg.digestOnly) {
    Digest d;
    for (const auto& u : in.subjects) d.add(*u.capture);
    for (const auto& recs : in.recordings)
      for (const auto& r : recs) {
        d.add(r.truthDeg);
        d.add(r.left);
        d.add(r.right);
      }
    for (std::size_t c = 0; c < clients; ++c) {
      for (auto rank : lookupScript[c]) d.add(double(rank));
      for (const auto& b : batchScript[c]) {
        d.add(double(b.rank));
        for (auto r : b.recs) d.add(double(r));
      }
    }
    rep.inputDigest = d.hex();
    return rep;
  }
  const auto chirp = knownChirp();

  struct Pass {
    std::vector<std::vector<double>> lookupUs;
    std::vector<std::vector<serve::CacheTier>> tiers;
    std::vector<std::vector<double>> batchMs;
    struct Answer {
      std::size_t subject = 0, rec = 0;
      double errDeg = 0.0;
    };
    std::vector<std::vector<Answer>> answers;  ///< unknown-source, per client
    ClientRates lookupRates, aoaRates;
    std::vector<Outcome> outcomes;
    std::vector<std::size_t> unpersonalized;  ///< per client
  };
  auto runPass = [&](double share) {
    Pass p;
    p.lookupUs.resize(clients);
    p.tiers.resize(clients);
    p.batchMs.resize(clients);
    p.answers.resize(clients);
    p.outcomes.resize(clients);
    p.unpersonalized.assign(clients, 0);
    p.lookupRates = runClients(clients, [&](std::size_t c) {
      const auto n = std::size_t(double(lookupScript[c].size()) * share);
      auto& us = p.lookupUs[c];
      auto& tiers = p.tiers[c];
      us.resize(n);
      tiers.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t rank = lookupScript[c][k];
        serve::CacheTier tier = serve::CacheTier::kMiss;
        const double t0 = nowSec();
        std::shared_ptr<const core::HrtfTable> table;
        {
          BENCH_SPAN("serve.cache.get_or_fallback");
          table = in.cache->getOrFallback(in.ids[rank], kSampleRate, &tier);
        }
        us[k] = (nowSec() - t0) * 1e6;
        tiers[k] = tier;
        const bool never = in.subjectOf[rank] < 0;
        const bool ok = table && table->farTable().byDegree.size() == 181 &&
                        (never ? tier == serve::CacheTier::kFallback
                               : (tier == serve::CacheTier::kMemory ||
                                  tier == serve::CacheTier::kDisk));
        p.outcomes[c].attempt(ok, "lookup of ", in.ids[rank]);
      }
      return n;
    });
    p.aoaRates = runClients(clients, [&](std::size_t c) {
      const auto n = std::size_t(double(batchScript[c].size()) * share);
      for (std::size_t b = 0; b < n; ++b) {
        const auto& batch = batchScript[c][b];
        const auto& recs =
            in.recordings[std::size_t(in.subjectOf[batch.rank])];
        std::vector<serve::AoaQuery> queries;
        for (std::size_t idx : batch.recs) {
          serve::AoaQuery q;
          q.userId = in.ids[batch.rank];
          q.left = recs[idx].left;
          q.right = recs[idx].right;
          if (recs[idx].known) q.source = chirp;
          queries.push_back(std::move(q));
        }
        const double t0 = nowSec();
        std::vector<serve::AoaBatchItem> items;
        {
          BENCH_SPAN("serve.aoa.run");
          // On the client's thread: nproc clients already keep every core
          // busy, so the engine's fan-out would only add threads that
          // fight for the same cores.
          items = in.engine->run(queries, 1);
        }
        p.batchMs[c].push_back((nowSec() - t0) * 1e3);
        bool ok = items.size() == queries.size();
        for (std::size_t k = 0; k < items.size(); ++k) {
          const double deg = items[k].estimate.angleDeg;
          ok = ok && angleValid(deg);
          // Every batch user is calibrated; a false flag is the engine's
          // contains()-after-lookup race with concurrent evictions.
          if (!items[k].personalized) ++p.unpersonalized[c];
          const auto& rec = recs[batch.recs[k]];
          if (!rec.known)
            p.answers[c].push_back(
                {std::size_t(in.subjectOf[batch.rank]), batch.recs[k],
                 angularDistanceDeg(deg, rec.truthDeg)});
        }
        p.outcomes[c].attempt(ok, "AoA batch for ", in.ids[batch.rank]);
      }
      return n * (kBatchKnown + kBatchUnknown);
    });
    return p;
  };

  auto flatten = [](const std::vector<std::vector<double>>& v) {
    std::vector<double> out;
    for (const auto& x : v) out.insert(out.end(), x.begin(), x.end());
    return out;
  };

  // Warm-up: the first 5% of every script, untimed.
  if (!cfg.tiny) runPass(0.05);
  Pass pass;
  if (!cfg.trace) {
    pass = runPass(1.0);
    rep.peakRssMb = peakRssMb();
  } else {
    const auto untracedBefore = runPass(0.5);
    obs::setTraceEnabled(true);
    obs::clearTrace();
    const auto before = CounterWindow::read();
    const auto statsBefore = in.cache->stats();
    pass = runPass(1.0);
    const auto cw = CounterWindow::read().since(before);
    const auto statsAfter = in.cache->stats();
    obs::setTraceEnabled(false);
    const auto untracedAfter = runPass(0.5);
    std::vector<double> memUs, diskUs;
    std::size_t mem = 0, disk = 0, fallback = 0, total = 0;
    for (std::size_t c = 0; c < clients; ++c)
      for (std::size_t k = 0; k < pass.tiers[c].size(); ++k) {
        ++total;
        switch (pass.tiers[c][k]) {
          case serve::CacheTier::kMemory:
            ++mem;
            memUs.push_back(pass.lookupUs[c][k]);
            break;
          case serve::CacheTier::kDisk:
            ++disk;
            diskUs.push_back(pass.lookupUs[c][k]);
            break;
          default:
            ++fallback;
        }
      }
    rep.layer["serve.cache.memory_ratio"] = ratio(double(mem), double(total));
    rep.layer["serve.cache.disk_ratio"] = ratio(double(disk), double(total));
    rep.layer["serve.cache.fallback_ratio"] =
        ratio(double(fallback), double(total));
    rep.layer["serve.cache.memory_us_p50"] = pct(memUs, 50);
    rep.layer["serve.cache.disk_us_p50"] = pct(diskUs, 50);
    rep.layer["serve.cache.evictions"] =
        double(statsAfter.evictions - statsBefore.evictions);
    rep.layer["serve.lookups_per_s"] = pass.lookupRates.throughput();
    rep.layer["serve.lookup_us_p99"] = pct(flatten(pass.lookupUs), 99);
    const auto batchMs = flatten(pass.batchMs);
    rep.layer["serve.aoa.batch_ms_p50"] = pct(batchMs, 50);
    rep.layer["serve.aoa.batch_ms_p90"] = pct(batchMs, 90);
    rep.layer["serve.aoa.unpersonalized"] = double(std::accumulate(
        pass.unpersonalized.begin(), pass.unpersonalized.end(),
        std::size_t{0}));
    const double batches = double(batchMs.size());
    rep.layer["dsp.fft.transforms"] = ratio(double(cw.transforms), batches);
    rep.layer["dsp.fft.plan_hit_ratio"] =
        ratio(double(cw.hits), double(cw.hits + cw.misses));
    rep.layer["common.pool.tasks"] = ratio(double(cw.tasks), batches);
    // Same-op latencies (ms) of lookups and batches.
    auto opMs = [&](const Pass& p) {
      std::vector<double> ms;
      for (std::size_t c = 0; c < clients; ++c) {
        for (std::size_t k = 0; k < untracedBefore.lookupUs[c].size(); ++k)
          ms.push_back(p.lookupUs[c][k] * 1e-3);
        for (std::size_t k = 0; k < untracedBefore.batchMs[c].size(); ++k)
          ms.push_back(p.batchMs[c][k]);
      }
      return ms;
    };
    rep.layer["obs.trace_overhead_ratio"] = overheadRatio(
        opMs(untracedBefore), opMs(pass), opMs(untracedAfter));

    // Direct layer timings on the same inputs (main thread, pool idle),
    // traced too, after the bracketing passes.
    obs::setTraceEnabled(true);
    std::vector<double> knownMs, unknownMs, loadMs;
    const core::AoaEstimator estimator(in.tables[0]->farTable());
    for (const auto& r : in.recordings[0]) {
      const double t0 = nowSec();
      if (r.known) {
        BENCH_SPAN("core.aoa.estimate_known");
        (void)estimator.estimateKnown(r.left, r.right, chirp);
      } else {
        BENCH_SPAN("core.aoa.estimate_unknown");
        (void)estimator.estimateUnknown(r.left, r.right);
      }
      (r.known ? knownMs : unknownMs).push_back((nowSec() - t0) * 1e3);
    }
    for (std::size_t k = 0; k < std::min<std::size_t>(64, in.calibrated.size());
         ++k) {
      const auto path =
          (fs::path(persistDir) / (in.ids[in.calibrated[k]] + ".uniqq"))
              .string();
      const double t0 = nowSec();
      const auto table = [&] {
        BENCH_SPAN("core.table_io.load");
        return core::loadHrtfTable(path);
      }();
      loadMs.push_back((nowSec() - t0) * 1e3);
      outcome.attempt(tableValid(table), "persisted table ", path);
    }
    obs::setTraceEnabled(false);
    rep.layer["core.aoa.known_ms_p50"] = pct(knownMs, 50);
    rep.layer["core.aoa.unknown_ms_p50"] = pct(unknownMs, 50);
    rep.layer["core.table_io.load_ms_p50"] = pct(loadMs, 50);
    rep.layer["core.fusion.loc_err_deg"] = pct(in.locErrDeg, 50);
  }
  rep.hostRefMs = host.medianMs();

  for (const auto& o : pass.outcomes) outcome.merge(o);

  // Fidelity of the served tables (untimed): HRIR correlation, and each
  // unknown-source recording answered with the ground-truth table.
  std::vector<double> corr(subjectCount);
  std::vector<std::vector<double>> truthErr(subjectCount);
  std::vector<Outcome> checks(subjectCount);
  common::parallelFor(0, subjectCount, [&](std::size_t s) {
    const bool ok = in.status[s] != core::PipelineStatus::kFailed &&
                    tableValid(*in.tables[s]);
    checks[s].attempt(ok, "set-up calibration of ",
                      in.subjects[s].subject.name);
    const auto truth = truthFarTable(in.subjects[s].subject);
    corr[s] = hrirCorr(in.tables[s]->farTable(), truth);
    const core::AoaEstimator reference(truth);
    for (const auto& r : in.recordings[s])
      truthErr[s].push_back(r.known ? 0.0 : aoaError(reference, r, checks[s]));
  });
  for (const auto& o : checks) outcome.attemptOp(o);
  for (const auto& answers : pass.answers)
    for (const auto& a : answers)
      rep.aoa.add(a.errDeg, truthErr[a.subject][a.rec]);
  rep.opsPerSec = pass.aoaRates.throughput();
  rep.opMsP50 = pct(flatten(pass.batchMs), 50);
  rep.hrirCorr = eval::mean(corr);
  in.engine.reset();
  in.cache.reset();
  fs::remove_all(persistDir);
  return rep;
}

// ------------------------------------------------------------------ main --

/// Per-layer metrics in BENCHMARK.json order, with their units.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"core.extract.ms", "ms"},
    {"core.fusion.ms", "ms"},
    {"core.nearfield.ms", "ms"},
    {"core.nearfar.ms", "ms"},
    {"core.gesture.ms", "ms"},
    {"core.fusion.iterations", "count"},
    {"core.fusion.rejected_stops", "count"},
    {"core.fusion.loc_err_deg", "deg"},
    {"core.aoa.err_deg_p50", "deg"},
    {"dsp.fft.transforms", "count"},
    {"dsp.fft.plan_hit_ratio", "ratio"},
    {"common.pool.tasks", "count"},
    {"serve.submit_us_p66", "us"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.job_ms_p50", "ms"},
    {"serve.rejected", "count"},
    {"stream.job_ms_p50", "ms"},
    {"stream.run_ms_p50", "ms"},
    {"stream.stops_pushed_mean", "count"},
    {"stream.hrir_corr", "corr"},
    {"serve.cache.memory_ratio", "ratio"},
    {"serve.cache.disk_ratio", "ratio"},
    {"serve.cache.fallback_ratio", "ratio"},
    {"serve.cache.memory_us_p50", "us"},
    {"serve.cache.disk_us_p50", "us"},
    {"serve.cache.evictions", "count"},
    {"serve.lookups_per_s", "1/s"},
    {"serve.lookup_us_p99", "us"},
    {"core.table_io.load_ms_p50", "ms"},
    {"core.aoa.known_ms_p50", "ms"},
    {"core.aoa.unknown_ms_p50", "ms"},
    {"serve.aoa.batch_ms_p50", "ms"},
    {"serve.aoa.batch_ms_p90", "ms"},
    {"serve.aoa.unpersonalized", "count"},
    {"core.self_s", "s"},
    {"serve.self_s", "s"},
    {"stream.self_s", "s"},
    {"obs.spans", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"host.slice_ms", "ms"},
};

int usage() {
  std::cerr << "usage: uniq_perfbench --workload serve-jobs|query "
               "--seed N --seconds S --trace 0|1 [--tiny] [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") cfg.workload = next();
      else if (a == "--seed") cfg.seed = std::stoull(next());
      else if (a == "--seconds") cfg.seconds = std::stod(next());
      else if (a == "--trace") cfg.trace = std::stoi(next()) != 0;
      else if (a == "--tiny") cfg.tiny = true;
      else if (a == "--inputs-digest") cfg.digestOnly = true;
      else if (a == "--out-dir") cfg.outDir = next();
      else return usage();
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return usage();
    }
  }
  if (cfg.seconds <= 0.0) return usage();

  obs::setTraceEnabled(false);
  fs::create_directories(cfg.outDir);
  Outcome outcome;
  Report rep;
  try {
    if (cfg.workload == "serve-jobs") rep = runServeJobs(cfg, outcome);
    else if (cfg.workload == "query") rep = runQuery(cfg, outcome);
    else return usage();
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 1;
  }

  if (cfg.digestOnly) {
    std::cout << "{\"inputs\": \"" << rep.inputDigest << "\"}" << std::endl;
    return 0;
  }
  std::vector<Metric> metrics;
  if (!cfg.trace) {
    const double ok = ratio(double(outcome.attempted() - outcome.failed()),
                            double(outcome.attempted()));
    // Times as on the nominal host (see HostSpeed).
    const double scale = HostSpeed::kNominalMs / rep.hostRefMs;
    std::cerr << "host slice " << rep.hostRefMs << " ms; raw setup_s "
              << rep.setupSec << ", ops_per_s " << rep.opsPerSec
              << ", op_ms_p50 " << rep.opMsP50 << "\n";
    metrics = {{"setup_s", rep.setupSec * scale, "s"},
               {"peak_rss_mb", rep.peakRssMb, "MB"},
               {"ok_ratio", ok, "ratio"},
               {"ops_per_s", rep.opsPerSec / scale, "1/s"},
               {"op_ms_p50", rep.opMsP50 * scale, "ms"},
               {"hrir_corr", rep.hrirCorr, "corr"},
               {"aoa_vs_truth", rep.aoa.vsTruth(), "ratio"}};
  } else {
    rep.layer["core.aoa.err_deg_p50"] = pct(rep.aoa.errDeg, 50);
    const auto spans = obs::collectSpans();
    const auto summary = summarizeTrace(spans);
    rep.layer["obs.spans"] = double(summary.spans);
    rep.layer["host.slice_ms"] = rep.hostRefMs;
    for (const char* layer : {"core", "serve", "stream"}) {
      auto it = summary.selfSec.find(layer);
      rep.layer[std::string(layer) + ".self_s"] =
          it == summary.selfSec.end() ? 0.0 : it->second;
    }
    const auto tracePath =
        (fs::path(cfg.outDir) / ("trace-" + cfg.workload + ".json")).string();
    std::string error;
    if (!obs::writeTextFile(tracePath, obs::traceEventJson(spans), &error))
      std::cerr << "could not write trace: " << error << "\n";
    for (const auto& [name, unit] : kPerLayer)
      metrics.push_back({name, rep.layer[name], unit});
  }
  printResult(outcome, metrics);
  return outcome.failed() == 0 ? 0 : 1;
}
