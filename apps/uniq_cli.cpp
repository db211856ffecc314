// uniq — command-line front end for the UNIQ HRTF personalization library.
//
// Subcommands:
//   calibrate --out table.uniq [--seed N] [--constrained] [--stops N]
//             [--report] [--trace-out trace.json] [--metrics-out m.json]
//       Run a (simulated) calibration sweep for a synthetic subject and
//       save the personalized HRTF lookup table. On real hardware the
//       capture stage would be replaced by the phone/earbud recordings;
//       everything downstream is identical. --report prints the per-stage
//       summary table; the *-out flags dump Chrome trace / metrics JSON.
//   inspect --table table.uniq
//       Print the table's head parameters and structural summary.
//   render --table table.uniq --in mono.wav --out binaural.wav --angle DEG
//       Render a mono WAV through the personalized far-field HRTF.
//   demo-render --table table.uniq --out binaural.wav --angle DEG
//       Same as render with a built-in test signal (no input file needed).
//   serve-batch --users N [--workers W] [--queue Q] [--stops N] [--seed N]
//               [--deadline-ms D] [--cancel C] [--cache-capacity K]
//               [--table-dir DIR] [--aoa-queries M] [--compare-serial]
//               [--fault KIND [--fault-severity X] [--fault-every K]]
//               [--metrics-out m.json]
//       Drive the concurrent calibration service end to end with N
//       simulated users: submit every capture as a job, drain, run a
//       batched AoA pass against the cached per-user tables, and print
//       per-job states plus aggregate throughput/cache statistics.
//   serve-load --users N --duration-s S [--threads T] [--skew Z]
//              [--shards K] [--cache-capacity C] [--warm W]
//              [--table-dir DIR] [--load-report out.json]
//              [--metrics-out m.json] [--scrape-port P]
//              [--sample-interval-ms X] [--slo-rules rules.json]
//              [--fail-on-slo] [--exposition-out m.prom]
//       Zipfian-skewed load driver over N simulated users against the
//       serving stack (--shards K: the table cache's shard count): mostly
//       table lookups, with AoA queries and batch/streaming calibration
//       jobs mixed in. Reports p50/p99/p999
//       latency, per-tier hit rates over time, and saturation throughput
//       (see docs/CAPACITY.md). Runs a continuous-telemetry sampler; with
//       --scrape-port it serves live Prometheus exposition on localhost
//       and with --slo-rules it evaluates burn-rate SLOs per window
//       (--fail-on-slo exits 5 on breach; see docs/OBSERVABILITY.md).
//   monitor --port P [--interval-ms X] [--iterations N]
//       Poll a serve-load scrape endpoint and render a live terminal view
//       of rates, window quantiles, and SLO status.
//   convert --in table.uniq --out table.uniqq [--format quantized|float64]
//       Re-encode an HRTF table between the float64 and quantized
//       containers and print the size ratio.
//
// Numeric flags must parse in full (no sign on a count, no trailing
// characters); a bad value exits 1 with an error that names the flag. A
// flag the subcommand does not read exits 1 the same way.
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audio/wav.h"
#include "common/error.h"
#include "common/math_util.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "core/table_io.h"
#include "dsp/resample.h"
#include "dsp/signal_generators.h"
#include "eval/metrics.h"
#include "head/subject.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "obs/scrape.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "serve/batch_aoa.h"
#include "serve/calibration_service.h"
#include "serve/table_cache.h"
#include "sim/fault_injector.h"
#include "sim/measurement_session.h"
#include "stream/streaming_session.h"

using namespace uniq;

namespace {

using Args = std::map<std::string, std::string>;

Args parseArgs(int argc, char** argv, int firstArg) {
  Args args;
  for (int i = firstArg; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw uniq::InvalidArgument("expected --flag, got: " + key);
    }
    const std::string next = i + 1 < argc ? argv[i + 1] : "--";
    const bool hasValue = next.rfind("--", 0) != 0;
    // A flag without a value is a boolean flag.
    args.insert_or_assign(key.substr(2), hasValue ? next : "1");
    if (hasValue) ++i;
  }
  return args;
}

/// "u<rank>", the user id serve-load gives a Zipf rank. Built by insert
/// rather than `"u" + std::to_string(rank)`: GCC 12 at -O3 reports a false
/// -Wrestrict overlap for that concatenation.
std::string loadUserId(std::size_t rank) {
  std::string id = std::to_string(rank);
  id.insert(id.begin(), 'u');
  return id;
}

std::string require(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end())
    throw uniq::InvalidArgument("missing required flag --" + key);
  return it->second;
}

std::string optional(const Args& args, const std::string& key,
                     const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

/// Parses the whole of --key's value as a finite T, or throws
/// InvalidArgument naming the flag: junk, trailing characters, inf/nan or
/// (for an unsigned T) a sign never reach the program. std::stoull would
/// read "-1" as 2^64 - 1 and let std::invalid_argument escape main.
template <typename T>
T parseFlag(const std::string& key, const std::string& text,
            const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end ||
      !std::isfinite(static_cast<double>(value)))
    throw uniq::InvalidArgument("--" + key + " expects " + expected +
                                ", got: " + text);
  return value;
}

/// --key as a non-negative integer; required unless a fallback is given.
std::uint64_t unsignedFlag(const Args& args, const std::string& key,
                           std::optional<std::uint64_t> fallback = {}) {
  if (fallback && args.count(key) == 0) return *fallback;
  return parseFlag<std::uint64_t>(key, require(args, key),
                                  "a non-negative integer");
}

/// --key as a finite real number; required unless a fallback is given.
double realFlag(const Args& args, const std::string& key,
                std::optional<double> fallback = {}) {
  if (fallback && args.count(key) == 0) return *fallback;
  return parseFlag<double>(key, require(args, key), "a finite number");
}

/// --key as a TCP port; 0 asks the OS for an ephemeral one.
std::uint16_t portFlag(const Args& args, const std::string& key,
                       std::optional<std::uint64_t> fallback = {}) {
  const auto port = unsignedFlag(args, key, fallback);
  if (port > 65535)
    throw uniq::InvalidArgument("--" + key + " expects a port, got: " +
                                std::to_string(port));
  return static_cast<std::uint16_t>(port);
}

/// Parse-check and write one observability JSON export. The CLI parses
/// its own output so a malformed exporter fails the run (and the CI smoke
/// test) instead of producing a file chrome://tracing rejects.
int writeValidatedJson(const std::string& path, const std::string& json,
                       const char* what) {
  std::string error;
  if (!obs::parseJson(json, &error)) {
    std::cerr << "error: generated " << what << " JSON is malformed: " << error
              << "\n";
    return 1;
  }
  if (!obs::writeTextFile(path, json, &error)) {
    std::cerr << "error: writing " << path << ": " << error << "\n";
    return 1;
  }
  std::cout << "wrote " << what << " JSON to " << path << "\n";
  return 0;
}

/// Shared by calibrate / calibrate-stream: simulate one subject's capture
/// per --seed/--constrained/--stops and apply the optional --fault.
sim::CalibrationCapture simulateCaptureFromArgs(const Args& args,
                                                std::uint64_t seed) {
  std::cout << "simulating subject (seed " << seed << ")...\n";
  const auto subject = head::makePopulation(1, seed)[0];
  const sim::MeasurementSession session;
  auto gesture = args.count("constrained") > 0 ? sim::constrainedGesture()
                                               : sim::defaultGesture();
  gesture.stops = unsignedFlag(args, "stops", gesture.stops);
  auto capture = session.run(subject, gesture);

  // Optional fault injection: corrupt the clean capture the way a named
  // real-world defect would, to exercise the degraded paths end to end.
  if (args.count("fault") > 0) {
    const auto kind = sim::faultKindFromName(require(args, "fault"));
    const double severity = realFlag(args, "fault-severity", 0.5);
    sim::FaultInjector injector(seed);
    injector.add(kind, severity);
    sim::FaultInjectionLog log;
    capture = injector.apply(capture, &log);
    std::cout << "injected fault " << sim::faultKindName(kind)
              << " (severity " << severity << ") corrupting "
              << log.corruptedStops().size() << " stop(s)\n";
  }
  return capture;
}

core::CalibrationPipelineOptions pipelineOptionsFromArgs(const Args& args) {
  core::CalibrationPipelineOptions pipeOpts;
  pipeOpts.minUsableStops =
      unsignedFlag(args, "min-stops", pipeOpts.minUsableStops);
  return pipeOpts;
}

int cmdCalibrate(const Args& args) {
  const auto outPath = require(args, "out");
  const auto seed = unsignedFlag(args, "seed", 42);
  const bool wantReport = args.count("report") > 0;
  const bool failOnDegraded = args.count("fail-on-degraded") > 0;
  const auto traceOut = optional(args, "trace-out", "");
  const auto metricsOut = optional(args, "metrics-out", "");

  auto capture = simulateCaptureFromArgs(args, seed);
  const auto pipeOpts = pipelineOptionsFromArgs(args);

  std::cout << "running the UNIQ pipeline on " << capture.stops.size()
            << " stops...\n";
  const core::CalibrationPipeline pipeline(pipeOpts);
  obs::RunReport report;
  const auto personal = pipeline.run(capture, &report);

  std::cout << "status: " << core::pipelineStatusName(personal.status)
            << "\n";
  if (!personal.diagnostics.empty())
    std::cout << "diagnostics:\n" << report.diagnosticsText();
  if (!personal.gestureReport.ok) {
    std::cout << "gesture check FLAGGED:\n";
    for (const auto& issue : personal.gestureReport.issues)
      std::cout << "  - " << issue << "\n";
  }
  std::cout << "estimated head (a,b,c) = (" << personal.headParams.a << ", "
            << personal.headParams.b << ", " << personal.headParams.c
            << ") m, fusion RMS residual "
            << std::sqrt(personal.fusion.meanSquaredResidualDeg2)
            << " deg\n";
  core::saveHrtfTable(outPath, personal.table);
  std::cout << "saved "
            << (personal.status == core::PipelineStatus::kFailed
                    ? "population-average fallback"
                    : "personalized")
            << " HRTF table to " << outPath << "\n";

  if (wantReport) {
    std::cout << "\nrun report\n" << report.summaryTable() << "\n";
  }

  // The perf section reads the process-wide registry, so it also covers
  // instruments the pipeline stages registered on their own.
  std::cout << "perf:\n"
            << obs::summarizeMetrics(obs::registry().snapshot(),
                                     {"fft.", "pool."});

  if (!traceOut.empty()) {
    const int rc = writeValidatedJson(
        traceOut, obs::traceEventJson(obs::collectSpans()), "trace");
    if (rc != 0) return rc;
    if (!obs::traceEnabled()) {
      std::cout << "note: tracing is disabled (UNIQ_OBSERVABILITY=0); "
                   "the trace is empty\n";
    }
  }
  if (!metricsOut.empty()) {
    const int rc = writeValidatedJson(
        metricsOut, obs::metricsJson(obs::registry().snapshot()), "metrics");
    if (rc != 0) return rc;
  }

  // Exit-code contract (documented in docs/ROBUSTNESS.md): ok -> 0,
  // degraded -> 0 (or 3 under --fail-on-degraded), failed -> 4. Flag errors
  // and I/O problems keep exiting 1 via the main() catch.
  if (personal.status == core::PipelineStatus::kFailed) return 4;
  if (personal.status == core::PipelineStatus::kDegraded && failOnDegraded)
    return 3;
  return 0;
}

int cmdCalibrateStream(const Args& args) {
  const auto outPath = require(args, "out");
  const auto seed = unsignedFlag(args, "seed", 42);
  const bool wantReport = args.count("report") > 0;
  const bool failOnDegraded = args.count("fail-on-degraded") > 0;
  const bool earlyStop = args.count("no-early-stop") == 0;
  const bool compareBatch = args.count("compare-batch") > 0;
  const double intervalMs = realFlag(args, "interval-ms", 0.0);
  const auto traceOut = optional(args, "trace-out", "");
  const auto metricsOut = optional(args, "metrics-out", "");

  auto capture = simulateCaptureFromArgs(args, seed);

  const auto pipelineOpts = pipelineOptionsFromArgs(args);

  // Replay the capture into the streaming session the way a phone would
  // deliver it: one stop at a time, at --interval-ms wall-clock pacing
  // (0 = as fast as push() folds them in), with live coverage feedback
  // after every push and an early finish when the table converges.
  std::cout << "streaming " << capture.stops.size() << " stops"
            << (intervalMs > 0.0
                    ? " at " + std::to_string(intervalMs) + " ms/stop"
                    : " at full speed")
            << (earlyStop ? "" : " (early stop disabled)") << "...\n";
  stream::StreamingSession session(
      stream::CaptureHeader::fromCapture(capture), pipelineOpts);
  std::size_t pushed = 0;
  for (std::size_t i = 0; i < capture.stops.size(); ++i) {
    if (earlyStop && session.converged()) break;
    session.push(capture.stops[i], i);
    ++pushed;
    if (intervalMs > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(intervalMs));
    }
    const auto snap = session.coverage();
    std::cout << "  stop " << std::setw(2) << i << "  coverage "
              << std::setw(3)
              << static_cast<int>(std::lround(100.0 * snap.coveredFraction))
              << "%  solves " << std::setw(2) << snap.incrementalSolves
              << "  " << snap.hint << "\n";
  }

  obs::RunReport report;
  const auto result = session.finalize(&report);
  const auto& personal = result.personal;

  if (result.convergedEarly && pushed < capture.stops.size()) {
    std::cout << "converged early: finalized after " << pushed << "/"
              << capture.stops.size() << " stops ("
              << std::lround(result.timeToConvergeMs)
              << " ms to convergence) — the user could have stopped "
                 "sweeping here\n";
  } else if (result.convergedEarly) {
    std::cout << "converged during the sweep ("
              << std::lround(result.timeToConvergeMs) << " ms); all "
              << pushed << " stops used\n";
  } else {
    std::cout << "sweep ended without convergence; finalized from all "
              << pushed << " pushed stops\n";
  }

  std::cout << "status: " << core::pipelineStatusName(personal.status)
            << "\n";
  if (!personal.diagnostics.empty())
    std::cout << "diagnostics:\n" << report.diagnosticsText();
  std::cout << "estimated head (a,b,c) = (" << personal.headParams.a << ", "
            << personal.headParams.b << ", " << personal.headParams.c
            << ") m, fusion RMS residual "
            << std::sqrt(personal.fusion.meanSquaredResidualDeg2)
            << " deg\n";
  core::saveHrtfTable(outPath, personal.table);
  std::cout << "saved "
            << (personal.status == core::PipelineStatus::kFailed
                    ? "population-average fallback"
                    : "personalized")
            << " HRTF table to " << outPath << "\n";

  // Equality check against the batch pipeline over the same capture. When
  // every stop was pushed the streaming finalize runs the identical code
  // over identically extracted channels, so the tables must be bitwise
  // equal; an early-stopped session is compared for closeness only.
  if (compareBatch) {
    std::cout << "running batch pipeline for comparison...\n";
    const core::CalibrationPipeline pipeline(pipelineOpts);
    const auto batch = pipeline.run(capture);
    double maxAbsDiff = 0.0;
    const auto& sFar = personal.table.farTable().byDegree;
    const auto& bFar = batch.table.farTable().byDegree;
    if (sFar.size() != bFar.size()) {
      std::cerr << "error: far-table size mismatch (streaming "
                << sFar.size() << " vs batch " << bFar.size() << ")\n";
      return 1;
    }
    for (std::size_t d = 0; d < sFar.size(); ++d) {
      for (std::size_t k = 0; k < sFar[d].left.size(); ++k) {
        maxAbsDiff = std::max(maxAbsDiff,
                              std::fabs(sFar[d].left[k] - bFar[d].left[k]));
        maxAbsDiff = std::max(
            maxAbsDiff, std::fabs(sFar[d].right[k] - bFar[d].right[k]));
      }
    }
    if (pushed == capture.stops.size()) {
      std::cout << "streaming vs batch (all stops): max abs far-table diff "
                << maxAbsDiff << "\n";
      if (maxAbsDiff != 0.0) {
        std::cerr << "error: full-capture streaming table is not "
                     "bitwise-identical to batch\n";
        return 1;
      }
    } else {
      std::cout << "streaming (early stop, " << pushed << "/"
                << capture.stops.size()
                << " stops) vs batch: max abs far-table diff " << maxAbsDiff
                << "\n";
    }
  }

  if (wantReport) {
    std::cout << "\nrun report\n" << report.summaryTable() << "\n";
  }
  std::cout << "stream metrics:\n"
            << obs::summarizeMetrics(obs::registry().snapshot(),
                                     {"stream."});

  if (!traceOut.empty()) {
    const int rc = writeValidatedJson(
        traceOut, obs::traceEventJson(obs::collectSpans()), "trace");
    if (rc != 0) return rc;
  }
  if (!metricsOut.empty()) {
    const int rc = writeValidatedJson(
        metricsOut, obs::metricsJson(obs::registry().snapshot()), "metrics");
    if (rc != 0) return rc;
  }

  // Same exit-code contract as calibrate (docs/ROBUSTNESS.md): ok -> 0,
  // degraded -> 0 (or 3 under --fail-on-degraded), failed -> 4.
  if (personal.status == core::PipelineStatus::kFailed) return 4;
  if (personal.status == core::PipelineStatus::kDegraded && failOnDegraded)
    return 3;
  return 0;
}

int cmdInspect(const Args& args) {
  const auto path = require(args, "table");
  const auto format = core::probeTableFormat(path);
  const auto table = core::loadHrtfTable(path);
  const auto& nearTable = table.nearTable();
  std::cout << "UNIQ HRTF table\n"
            << "  format:          "
            << (format ? core::tableFormatName(*format) : "unknown") << "\n"
            << "  sample rate:     " << table.sampleRate() << " Hz\n"
            << "  head (a,b,c):    (" << nearTable.headParams.a << ", "
            << nearTable.headParams.b << ", " << nearTable.headParams.c
            << ") m\n"
            << "  median radius:   " << nearTable.medianRadiusM << " m\n"
            << "  angular entries: " << nearTable.byDegree.size()
            << " near + " << table.farTable().byDegree.size() << " far\n"
            << "  HRIR length:     " << nearTable.byDegree[0].left.size()
            << " samples\n";
  const double itd90 = (table.farTable().tapRightSamples[90] -
                        table.farTable().tapLeftSamples[90]) /
                       table.sampleRate() * 1e6;
  std::cout << "  ITD at 90 deg:   " << itd90 << " us\n";
  return 0;
}

int cmdRender(const Args& args, bool demo) {
  const auto table = core::loadHrtfTable(require(args, "table"));
  const auto outPath = require(args, "out");
  const double angle = realFlag(args, "angle");

  std::vector<double> mono;
  double fs = table.sampleRate();
  if (demo) {
    Pcg32 rng(3);
    mono = dsp::musicLike(static_cast<std::size_t>(2.0 * fs), fs, rng);
  } else {
    const auto in = audio::readWav(require(args, "in"));
    if (in.sampleRate != fs) {
      std::cout << "note: input is " << in.sampleRate
                << " Hz, table is " << fs << " Hz; resampling\n";
      mono = dsp::resample(in.channels[0], in.sampleRate, fs);
    } else {
      mono = in.channels[0];
    }
  }

  const auto out = table.renderFar(angle, mono);
  audio::writeStereoWav(outPath, out.left, out.right, fs);
  std::cout << "rendered " << out.left.size() << " samples from azimuth "
            << angle << " deg -> " << outPath << "\n";
  return 0;
}

int cmdServeBatch(const Args& args) {
  const auto users = unsignedFlag(args, "users", 32);
  const auto stops = unsignedFlag(args, "stops", 12);
  const auto seed = unsignedFlag(args, "seed", 42);
  const auto cancelCount = unsignedFlag(args, "cancel", 0);
  const auto aoaQueries = unsignedFlag(
      args, "aoa-queries", std::min<std::uint64_t>(2 * users, 64));
  const double deadlineMs = realFlag(args, "deadline-ms", 0.0);
  const bool compareSerial = args.count("compare-serial") > 0;
  const auto metricsOut = optional(args, "metrics-out", "");

  serve::CalibrationServiceOptions serveOpts;
  serveOpts.workers = unsignedFlag(args, "workers", 0);
  serveOpts.maxQueued = unsignedFlag(args, "queue", 2 * users);
  serveOpts.cacheCapacity = unsignedFlag(args, "cache-capacity", users);
  serveOpts.persistDir = optional(args, "table-dir", "");
  serveOpts.pipeline.minUsableStops =
      unsignedFlag(args, "min-stops", serveOpts.pipeline.minUsableStops);

  UNIQ_REQUIRE(users >= 1, "--users must be >= 1");

  // --- Simulate the fleet: one subject + capture per user. -------------
  std::cout << "simulating " << users << " users (seed " << seed << ", "
            << stops << " stops each)...\n";
  const auto subjects = head::makePopulation(users, seed);
  const sim::MeasurementSession session;
  auto gesture = sim::defaultGesture();
  gesture.stops = stops;
  const auto faultEvery = unsignedFlag(args, "fault-every", 4);
  std::vector<std::shared_ptr<const sim::CalibrationCapture>> captures(users);
  std::vector<std::string> userIds(users);
  for (std::size_t i = 0; i < users; ++i) {
    std::ostringstream name;
    name << "user" << std::setfill('0') << std::setw(4) << i;
    userIds[i] = name.str();
    auto capture = session.run(subjects[i], gesture);
    if (args.count("fault") > 0 && faultEvery > 0 && i % faultEvery == 0) {
      const auto kind = sim::faultKindFromName(require(args, "fault"));
      const double severity = realFlag(args, "fault-severity", 0.5);
      sim::FaultInjector injector(seed + i);
      injector.add(kind, severity);
      capture = injector.apply(capture);
    }
    captures[i] =
        std::make_shared<const sim::CalibrationCapture>(std::move(capture));
  }

  // --- Optional serial baseline: the pre-service one-at-a-time loop. ---
  double serialSec = 0.0;
  if (compareSerial) {
    std::cout << "running serial baseline...\n";
    const core::CalibrationPipeline pipeline(serveOpts.pipeline);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < users; ++i) {
      const auto personal = pipeline.run(*captures[i]);
      (void)personal;
    }
    serialSec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    std::cout << "serial loop: " << serialSec << " s ("
              << static_cast<double>(users) / serialSec << " jobs/s)\n";
  }

  // --- The service run. ------------------------------------------------
  serve::CalibrationService service(serveOpts);
  std::cout << "service: " << service.workerCount() << " worker(s), queue "
            << serveOpts.maxQueued << ", cache " << serveOpts.cacheCapacity
            << (serveOpts.persistDir.empty()
                    ? std::string()
                    : ", persist dir " + serveOpts.persistDir)
            << "\n";
  serve::JobOptions jobOpts;
  jobOpts.deadlineMs = deadlineMs;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> ids(users, serve::kInvalidJobId);
  std::size_t backpressureRetries = 0;
  for (std::size_t i = 0; i < users; ++i) {
    // Backpressure loop: a rejected submit waits for the queue to drain a
    // little and retries — what a real ingress would do.
    for (;;) {
      ids[i] = service.submit(userIds[i], captures[i], jobOpts);
      if (ids[i] != serve::kInvalidJobId) break;
      ++backpressureRetries;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  for (std::size_t c = 0; c < cancelCount && c < users; ++c)
    service.cancel(ids[users - 1 - c]);
  const auto results = service.drain();
  const double serviceSec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

  std::map<std::string, std::size_t> tally;
  for (const auto& r : results) {
    std::string label = serve::jobStateName(r.state);
    if (r.state == serve::JobState::kDone)
      label += std::string("/") + core::pipelineStatusName(r.status);
    ++tally[label];
    std::cout << "  " << r.userId << "  " << label << "  queue "
              << std::lround(r.queueMs) << " ms, run "
              << std::lround(r.runMs) << " ms"
              << (r.error.empty() ? "" : ("  [" + r.error + "]")) << "\n";
  }
  std::cout << "service run: " << serviceSec << " s ("
            << static_cast<double>(users) / serviceSec << " jobs/s, "
            << backpressureRetries << " backpressure retr"
            << (backpressureRetries == 1 ? "y" : "ies") << ")\n";
  for (const auto& [label, count] : tally)
    std::cout << "  " << label << ": " << count << "\n";
  if (compareSerial && serviceSec > 0.0)
    std::cout << "speedup vs serial loop: " << serialSec / serviceSec
              << "x\n";

  // --- Batched AoA against the cached tables. --------------------------
  if (aoaQueries > 0) {
    std::cout << "running " << aoaQueries
              << " batched AoA queries against the table cache...\n";
    const double fs = session.options().sampleRate;
    const auto chirp = dsp::linearChirp(
        200.0, 16000.0, static_cast<std::size_t>(0.05 * fs), fs);
    Pcg32 rng(seed ^ 0x5eedu);
    auto music = dsp::musicLike(static_cast<std::size_t>(0.4 * fs), fs, rng);
    std::vector<serve::AoaQuery> queries(aoaQueries);
    std::vector<double> trueAngles(aoaQueries);
    for (std::size_t j = 0; j < aoaQueries; ++j) {
      const std::size_t u = j % users;
      const double angle = 20.0 + static_cast<double>((j * 37) % 140);
      trueAngles[j] = angle;
      const auto table = service.cache().getOrFallback(userIds[u], fs);
      const bool known = j % 2 == 0;
      const auto& mono = known ? chirp : music;
      const auto rendered = table->renderFar(angle, mono);
      queries[j].userId = userIds[u];
      queries[j].left = rendered.left;
      queries[j].right = rendered.right;
      if (known) queries[j].source = chirp;
    }
    const serve::BatchAoaEngine engine(service.cache());
    const auto a0 = std::chrono::steady_clock::now();
    const auto answers = engine.run(queries);
    const double aoaSec = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - a0)
                              .count();
    double sumErr = 0.0;
    std::size_t personalized = 0;
    for (std::size_t j = 0; j < answers.size(); ++j) {
      sumErr += angularDistanceDeg(answers[j].estimate.angleDeg,
                                   trueAngles[j]);
      if (answers[j].personalized) ++personalized;
    }
    std::cout << "aoa batch: " << aoaSec << " s ("
              << static_cast<double>(aoaQueries) / aoaSec
              << " queries/s), mean abs error "
              << sumErr / static_cast<double>(aoaQueries) << " deg, "
              << personalized << "/" << aoaQueries
              << " answered from personalized tables\n";
  }

  std::cout << "serve metrics:\n"
            << obs::summarizeMetrics(obs::registry().snapshot(), {"serve."});
  if (!metricsOut.empty()) {
    const int rc = writeValidatedJson(
        metricsOut, obs::metricsJson(obs::registry().snapshot()), "metrics");
    if (rc != 0) return rc;
  }

  // Every submitted job must have reached a terminal state; anything else
  // is a service bug worth a hard exit code.
  return results.size() == users ? 0 : 1;
}

int cmdConvert(const Args& args) {
  const auto inPath = require(args, "in");
  const auto outPath = require(args, "out");
  const auto formatName = optional(args, "format", "quantized");
  const auto table = core::loadHrtfTable(inPath);
  if (formatName == "quantized") {
    core::saveHrtfTableQuantized(outPath, table);
  } else if (formatName == "float64") {
    core::saveHrtfTable(outPath, table);
  } else {
    throw uniq::InvalidArgument("unknown --format: " + formatName +
                                " (expected quantized or float64)");
  }
  std::error_code ec;
  const auto inSize = std::filesystem::file_size(inPath, ec);
  const auto outSize = std::filesystem::file_size(outPath, ec);
  std::cout << "converted " << inPath << " (" << inSize << " bytes) -> "
            << outPath << " (" << outSize << " bytes, " << formatName
            << ")";
  if (outSize > 0)
    std::cout << "  ratio " << std::setprecision(3)
              << static_cast<double>(inSize) / static_cast<double>(outSize)
              << "x";
  std::cout << "\n";
  return 0;
}

/// One serve-load thread's lookup latencies, in bounded memory: past kCap
/// kept samples it drops every other one and doubles its sampling stride.
/// A table lookup takes about a microsecond, so a 30 s four-thread run on a
/// 4-vCPU VM makes ~25-28M of them; keeping every one raised that run's
/// peak RSS from ~280 MB to ~1.4 GB.
struct LatencyReservoir {
  static constexpr std::size_t kCap = 1u << 20;
  std::vector<double> samples;
  std::uint64_t stride = 1;
  std::uint64_t seen = 0;

  void record(double ms) {
    if (seen++ % stride != 0) return;
    if (samples.size() >= kCap) {
      std::size_t w = 0;
      for (std::size_t r = 0; r < samples.size(); r += 2)
        samples[w++] = samples[r];
      samples.resize(w);
      stride *= 2;
    }
    samples.push_back(ms);
  }
};

struct LatencyQuantiles {
  double p50, p99, p999;
};

/// Exact quantiles of a latency sample. Sorting once up front makes each
/// eval::percentile call's own sort a pass over already-ordered data.
LatencyQuantiles latencyQuantiles(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return {eval::percentile(ms, 50.0), eval::percentile(ms, 99.0),
          eval::percentile(ms, 99.9)};
}

std::string quantileJson(const LatencyQuantiles& q) {
  std::ostringstream out;
  out << std::setprecision(6) << "{\"p50_ms\": " << q.p50
      << ", \"p99_ms\": " << q.p99 << ", \"p999_ms\": " << q.p999 << "}";
  return out.str();
}

int cmdServeLoad(const Args& args) {
  const auto users = unsignedFlag(args, "users", 100000);
  const double durationS = realFlag(args, "duration-s", 10.0);
  const auto threads = unsignedFlag(
      args, "threads",
      std::clamp<unsigned>(std::thread::hardware_concurrency() / 2, 2, 8));
  const double skew = realFlag(args, "skew", 1.0);
  const auto shards = unsignedFlag(args, "shards", 4);
  const auto cacheCapacity = unsignedFlag(args, "cache-capacity", 4096);
  const auto seed = unsignedFlag(args, "seed", 42);
  const auto warm = unsignedFlag(args, "warm", std::min(users, cacheCapacity));
  const double calibIntervalMs =
      realFlag(args, "calibrate-interval-ms", 2000.0);
  const auto aoaEvery = unsignedFlag(args, "aoa-every", 256);
  const auto tableDir = optional(args, "table-dir", "");
  const auto loadReport = optional(args, "load-report", "");
  const auto metricsOut = optional(args, "metrics-out", "");
  const bool scrapeEnabled = args.count("scrape-port") > 0;
  const auto scrapePort = portFlag(args, "scrape-port", 0);
  const auto sampleIntervalMs = unsignedFlag(args, "sample-interval-ms", 250);
  const auto sloRulesPath = optional(args, "slo-rules", "");
  const bool failOnSlo = args.count("fail-on-slo") > 0;
  const auto expositionOut = optional(args, "exposition-out", "");

  UNIQ_REQUIRE(users >= 1, "--users must be >= 1");
  UNIQ_REQUIRE(threads >= 1, "--threads must be >= 1");
  UNIQ_REQUIRE(durationS > 0.0, "--duration-s must be > 0");
  UNIQ_REQUIRE(sampleIntervalMs >= 1,
               "--sample-interval-ms must be >= 1");

  serve::CalibrationServiceOptions serveOpts;
  serveOpts.workers = unsignedFlag(args, "workers", 0);
  serveOpts.maxQueued = unsignedFlag(args, "queue", 256);
  serveOpts.shards = shards;
  serveOpts.cacheCapacity = cacheCapacity;
  serveOpts.persistDir = tableDir;

  // --- Fixtures: a tiny capture pool for calibration jobs, one real
  // personalized table for the warm phase, canned AoA query signals. ------
  std::cout << "preparing fixtures (seed " << seed << ")...\n";
  const auto subjects = head::makePopulation(4, seed);
  const sim::MeasurementSession session;
  auto gesture = sim::defaultGesture();
  gesture.stops = 6;
  std::vector<std::shared_ptr<const sim::CalibrationCapture>> captures;
  for (const auto& subject : subjects)
    captures.push_back(std::make_shared<const sim::CalibrationCapture>(
        session.run(subject, gesture)));

  const core::CalibrationPipeline warmPipeline(serveOpts.pipeline);
  auto warmPersonal = warmPipeline.run(*captures[0]);
  const auto warmTable = std::make_shared<const core::HrtfTable>(
      std::move(warmPersonal.table));
  const double fs = warmTable->sampleRate();

  const auto chirp = dsp::linearChirp(
      200.0, 16000.0, static_cast<std::size_t>(0.05 * fs), fs);
  std::vector<serve::AoaQuery> aoaTemplates;
  for (const double angle : {30.0, 75.0, 120.0, 160.0}) {
    const auto rendered = warmTable->renderFar(angle, chirp);
    serve::AoaQuery q;
    q.left = rendered.left;
    q.right = rendered.right;
    q.source = chirp;
    aoaTemplates.push_back(std::move(q));
  }

  // --- The service under load. -----------------------------------------
  serve::CalibrationService service(serveOpts);
  std::cout << "service: " << service.workerCount() << " worker(s), cache "
            << cacheCapacity << " (" << service.cache().shardCount()
            << " shard(s))"
            << (tableDir.empty() ? std::string()
                                 : ", persist dir " + tableDir)
            << "\n";

  // Warm phase: the hottest `warm` ranks get a personalized table up
  // front, so the memory tier starts at its steady-state occupancy (and
  // the persist dir, when set, holds quantized spill for the overflow).
  std::cout << "warming " << warm << " hottest users...\n";
  for (std::size_t r = 0; r < warm && r < users; ++r)
    service.cache().put(loadUserId(r), warmTable);

  const ZipfSampler zipf(users, skew);
  const serve::BatchAoaEngine engine(service.cache());

  // --- Continuous telemetry: sampler + SLO rules + scrape endpoint. -----
  auto& reg = obs::registry();
  // Lookup latencies feed this registry histogram alongside the exact
  // LatencyReservoir so the two estimators can be cross-checked below.
  obs::Histogram& lookupHist = reg.histogram(
      "serve.load.lookup_ms", obs::HistogramOptions{1e-4, 2.0, 32});

  std::unique_ptr<obs::SloEvaluator> slo;
  if (!sloRulesPath.empty()) {
    std::ifstream rulesIn(sloRulesPath);
    UNIQ_REQUIRE(rulesIn.good(),
                 "cannot read --slo-rules file " + sloRulesPath);
    std::stringstream rulesBuf;
    rulesBuf << rulesIn.rdbuf();
    std::vector<obs::SloRule> rules;
    std::string sloError;
    if (!obs::SloEvaluator::parseRules(rulesBuf.str(), &rules, &sloError)) {
      std::cerr << "error: " << sloError << "\n";
      return 1;
    }
    slo = std::make_unique<obs::SloEvaluator>(reg, std::move(rules));
    std::cout << "slo: " << slo->rules().size() << " rule(s) from "
              << sloRulesPath << "\n";
  }

  obs::TelemetrySamplerOptions samplerOpts;
  samplerOpts.intervalMs = sampleIntervalMs;
  obs::TelemetrySampler sampler(reg, samplerOpts);
  if (slo) {
    sampler.onWindow(
        [&slo](const obs::TelemetryWindow& w) { slo->observe(w); });
  }

  const auto scrapeContent = [&reg, &sampler, &slo] {
    const obs::TelemetryWindow window = sampler.latest();
    const std::vector<obs::SloStatus> sloStatus =
        slo ? slo->status() : std::vector<obs::SloStatus>{};
    return obs::prometheusText(reg.snapshot(), &window,
                               slo ? &sloStatus : nullptr);
  };
  std::unique_ptr<obs::ScrapeServer> scrape;
  if (scrapeEnabled) {
    scrape = std::make_unique<obs::ScrapeServer>(scrapeContent, scrapePort);
    // Flushed immediately: the CI smoke harness parses this line to learn
    // the ephemeral port before the run finishes.
    std::cout << "scrape endpoint: http://127.0.0.1:" << scrape->port()
              << "/metrics" << std::endl;
  }
  sampler.start();

  struct ThreadStats {
    LatencyReservoir lookup;
    std::vector<double> aoaMs;
    std::uint64_t opsLookup = 0, opsAoa = 0, opsBatch = 0, opsStream = 0;
    std::uint64_t tiers[4] = {0, 0, 0, 0};  // memory, disk, fallback, miss
    // per second: [lookups, memory, disk, fallback, totalOps]
    std::vector<std::array<std::uint64_t, 5>> perSec;
    std::vector<std::uint64_t> jobIds;
    std::uint64_t rejected = 0;
  };
  std::vector<ThreadStats> stats(threads);
  const auto secBuckets =
      static_cast<std::size_t>(std::ceil(durationS)) + 2;
  for (auto& st : stats)
    st.perSec.assign(secBuckets, {0, 0, 0, 0, 0});

  std::cout << "driving Zipf(" << skew << ") load over " << users
            << " users with " << threads << " thread(s) for " << durationS
            << " s...\n";
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(durationS));

  auto worker = [&](std::size_t tid) {
    ThreadStats& st = stats[tid];
    Pcg32 rng(seed ^ (0x9e3779b9ULL * (tid + 1)), 2 * tid + 1);
    // Stagger each thread's first calibration so submissions spread out
    // instead of landing as a thundering herd every interval.
    double nextCalibMs =
        calibIntervalMs * static_cast<double>(tid + 1) /
        static_cast<double>(threads);
    std::uint64_t sinceAoa = 0, submitted = 0;
    for (;;) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      const double elapsedMs =
          std::chrono::duration<double, std::milli>(now - start).count();
      const auto sec = std::min<std::size_t>(
          static_cast<std::size_t>(elapsedMs / 1000.0), secBuckets - 1);
      const std::size_t rank = zipf.sample(rng);
      const std::string userId = loadUserId(rank);

      if (calibIntervalMs > 0.0 && elapsedMs >= nextCalibMs) {
        nextCalibMs += calibIntervalMs;
        serve::JobOptions jobOpts;
        jobOpts.streaming = submitted % 2 == 1;
        const auto id = service.submit(
            userId, captures[submitted % captures.size()], jobOpts);
        ++submitted;
        if (id == serve::kInvalidJobId) {
          ++st.rejected;
        } else {
          st.jobIds.push_back(id);
          ++(jobOpts.streaming ? st.opsStream : st.opsBatch);
          ++st.perSec[sec][4];
        }
        continue;
      }

      if (aoaEvery > 0 && ++sinceAoa >= aoaEvery) {
        sinceAoa = 0;
        auto query = aoaTemplates[rank % aoaTemplates.size()];
        query.userId = userId;
        const auto t0 = std::chrono::steady_clock::now();
        engine.run({std::move(query)}, 1);
        const auto t1 = std::chrono::steady_clock::now();
        st.aoaMs.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        ++st.opsAoa;
        ++st.perSec[sec][4];
        continue;
      }

      serve::CacheTier tier = serve::CacheTier::kMiss;
      const auto t0 = std::chrono::steady_clock::now();
      const auto table = service.cache().getOrFallback(userId, fs, &tier);
      const auto t1 = std::chrono::steady_clock::now();
      (void)table;
      const double lookupElapsedMs =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      st.lookup.record(lookupElapsedMs);
      lookupHist.observe(lookupElapsedMs);
      ++st.opsLookup;
      ++st.tiers[static_cast<std::size_t>(tier)];
      auto& bucket = st.perSec[sec];
      ++bucket[0];
      ++bucket[4];
      if (tier == serve::CacheTier::kMemory) ++bucket[1];
      if (tier == serve::CacheTier::kDisk) ++bucket[2];
      if (tier == serve::CacheTier::kFallback) ++bucket[3];
    }
  };

  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& t : pool) t.join();
  const double wallS = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  // Deterministic tail window covering everything since the last tick,
  // then park the background thread; the scrape server (when on) keeps
  // answering from this final state until the run exits.
  sampler.sampleNow();
  sampler.stop();

  // Calibration jobs were submitted open-loop; their latency is the
  // service-observed queue+run split, collected here.
  const auto jobResults = service.drain();
  std::vector<double> jobMs;
  std::map<std::string, std::size_t> jobStates;
  for (const auto& r : jobResults) {
    ++jobStates[serve::jobStateName(r.state)];
    jobMs.push_back(r.queueMs + r.runMs);
  }

  // --- Aggregate. -------------------------------------------------------
  std::vector<double> lookupMs, aoaMs, allMs;
  std::uint64_t opsLookup = 0, opsAoa = 0, opsBatch = 0, opsStream = 0,
                rejected = 0;
  std::uint64_t tiers[4] = {0, 0, 0, 0};
  std::vector<std::array<std::uint64_t, 5>> perSec(secBuckets,
                                                   {0, 0, 0, 0, 0});
  for (const auto& st : stats) {
    lookupMs.insert(lookupMs.end(), st.lookup.samples.begin(),
                    st.lookup.samples.end());
    aoaMs.insert(aoaMs.end(), st.aoaMs.begin(), st.aoaMs.end());
    // The overall mix takes this thread's AoA calls at its reservoir's
    // stride: kept whole, they would outweigh the decimated lookups and
    // pull the overall p99 up to an AoA latency.
    for (std::size_t i = 0; i < st.aoaMs.size(); i += st.lookup.stride)
      allMs.push_back(st.aoaMs[i]);
    opsLookup += st.opsLookup;
    opsAoa += st.opsAoa;
    opsBatch += st.opsBatch;
    opsStream += st.opsStream;
    rejected += st.rejected;
    for (std::size_t i = 0; i < 4; ++i) tiers[i] += st.tiers[i];
    for (std::size_t s = 0; s < secBuckets; ++s)
      for (std::size_t i = 0; i < 5; ++i) perSec[s][i] += st.perSec[s][i];
  }
  const std::uint64_t opsTotal = opsLookup + opsAoa + opsBatch + opsStream;
  const double throughput = static_cast<double>(opsTotal) / wallS;
  std::uint64_t saturation = 0;
  for (const auto& bucket : perSec)
    saturation = std::max(saturation, bucket[4]);
  const double hitRate =
      opsLookup > 0
          ? static_cast<double>(tiers[0]) / static_cast<double>(opsLookup)
          : 0.0;

  // Overall latency percentiles over every sampled operation: lookups and
  // AoA calls at each thread's reservoir stride, and every calibration job.
  allMs.insert(allMs.end(), lookupMs.begin(), lookupMs.end());
  allMs.insert(allMs.end(), jobMs.begin(), jobMs.end());
  const auto all = latencyQuantiles(std::move(allMs));

  reg.gauge("serve.load.ops").set(static_cast<double>(opsTotal));
  reg.gauge("serve.load.throughput_ops_per_s").set(throughput);
  reg.gauge("serve.load.saturation_ops_per_s")
      .set(static_cast<double>(saturation));
  reg.gauge("serve.load.p50_ms").set(all.p50);
  reg.gauge("serve.load.p99_ms").set(all.p99);
  reg.gauge("serve.load.p999_ms").set(all.p999);
  reg.gauge("serve.load.hit_rate").set(hitRate);

  // Estimator cross-check: the exact quantiles of the reservoir's samples
  // versus the log-binned histogram over the same lookup-latency stream.
  // Large drift here means the histogram bin layout no longer fits the
  // workload; the nightly flags it from the report JSON.
  const auto lookup = latencyQuantiles(std::move(lookupMs));
  const double histP50 = lookupHist.quantile(0.50);
  const double histP99 = lookupHist.quantile(0.99);

  // Per-stage split of the calibrations this run served, from the
  // pipeline.stage.<name>.ms histograms every StageTimer feeds.
  struct StageQuantiles {
    std::string stage;
    std::uint64_t count;
    double p50, p99;
  };
  std::vector<StageQuantiles> stageQuantiles;
  for (const auto& h : obs::registry().snapshot().histograms) {
    const std::string prefix = "pipeline.stage.", suffix = ".ms";
    if (h.name.size() <= prefix.size() + suffix.size() ||
        h.name.rfind(prefix, 0) != 0 ||
        h.name.compare(h.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
      continue;
    stageQuantiles.push_back(
        {h.name.substr(prefix.size(),
                       h.name.size() - prefix.size() - suffix.size()),
         h.count, h.quantile(0.50), h.quantile(0.99)});
  }

  std::cout << std::setprecision(4) << "load run: " << wallS << " s wall, "
            << opsTotal << " ops (" << throughput << " ops/s, peak "
            << saturation << " ops/s)\n"
            << "  ops: " << opsLookup << " lookup, " << opsAoa << " aoa, "
            << opsBatch << " batch, " << opsStream << " stream, " << rejected
            << " rejected\n"
            << "  latency: p50 " << all.p50 << " ms, p99 " << all.p99
            << " ms, p999 " << all.p999 << " ms\n"
            << "  tiers: " << tiers[0] << " memory, " << tiers[1]
            << " disk, " << tiers[2] << " fallback, " << tiers[3]
            << " miss (memory hit rate " << 100.0 * hitRate << "%)\n";
  for (const auto& [state, count] : jobStates)
    std::cout << "  jobs " << state << ": " << count << "\n";
  std::cout << "  lookup estimators: reservoir p50 " << lookup.p50
            << " ms / hist p50 " << histP50 << " ms, reservoir p99 "
            << lookup.p99 << " ms / hist p99 " << histP99 << " ms\n"
            << "  telemetry: " << sampler.windowCount() << " window(s) at "
            << sampleIntervalMs << " ms\n";
  for (const auto& st : stageQuantiles)
    std::cout << "  stage " << st.stage << ": p50 " << st.p50 << " ms, p99 "
              << st.p99 << " ms (" << st.count << " runs)\n";
  if (slo) {
    for (const auto& st : slo->status()) {
      std::cout << "  slo " << st.rule.name << ": "
                << (st.breached ? "BREACHED"
                                : (st.measurable ? "ok" : "no data"))
                << " (value " << st.value << ", limit " << st.limit << ")\n";
    }
  }
  std::cout << "serve metrics:\n"
            << obs::summarizeMetrics(obs::registry().snapshot(), {"serve."});

  if (!loadReport.empty()) {
    std::ostringstream json;
    json << std::setprecision(6);
    json << "{\n  \"schema\": \"uniq-serve-load-v1\",\n";
    json << "  \"config\": {\"users\": " << users << ", \"threads\": "
         << threads << ", \"duration_s\": " << durationS << ", \"skew\": "
         << skew << ", \"shards\": " << shards << ", \"cache_capacity\": "
         << cacheCapacity << ", \"warm\": " << warm
         << ", \"persist\": " << (tableDir.empty() ? "false" : "true")
         << ", \"seed\": " << seed << "},\n";
    json << "  \"ops\": {\"total\": " << opsTotal << ", \"lookup\": "
         << opsLookup << ", \"aoa\": " << opsAoa << ", \"batch\": "
         << opsBatch << ", \"stream\": " << opsStream << ", \"rejected\": "
         << rejected << "},\n";
    json << "  \"throughput_ops_per_s\": " << throughput << ",\n";
    json << "  \"saturation_ops_per_s\": " << saturation << ",\n";
    json << "  \"percentiles\": " << quantileJson(all) << ",\n";
    json << "  \"op_percentiles\": {\"lookup\": "
         << quantileJson(lookup)
         << ", \"aoa\": " << quantileJson(latencyQuantiles(aoaMs))
         << ", \"job\": " << quantileJson(latencyQuantiles(jobMs)) << "},\n";
    json << "  \"tiers\": {\"memory\": " << tiers[0] << ", \"disk\": "
         << tiers[1] << ", \"fallback\": " << tiers[2] << ", \"miss\": "
         << tiers[3] << "},\n";
    json << "  \"hit_rate\": " << hitRate << ",\n";
    json << "  \"hit_rate_curve\": [";
    bool first = true;
    for (std::size_t s = 0; s < secBuckets; ++s) {
      if (perSec[s][0] == 0) continue;
      if (!first) json << ", ";
      first = false;
      json << "{\"second\": " << s << ", \"lookups\": " << perSec[s][0]
           << ", \"hit_rate\": "
           << static_cast<double>(perSec[s][1]) /
                  static_cast<double>(perSec[s][0])
           << "}";
    }
    json << "],\n";
    json << "  \"estimator_check\": {\"reservoir_p50_ms\": " << lookup.p50
         << ", \"histogram_p50_ms\": " << histP50
         << ", \"reservoir_p99_ms\": " << lookup.p99
         << ", \"histogram_p99_ms\": " << histP99 << "},\n";
    json << "  \"stages\": {";
    for (std::size_t i = 0; i < stageQuantiles.size(); ++i) {
      const auto& st = stageQuantiles[i];
      json << (i > 0 ? ", " : "") << "\"" << obs::jsonEscape(st.stage)
           << "\": {\"count\": " << st.count << ", \"p50_ms\": " << st.p50
           << ", \"p99_ms\": " << st.p99 << "}";
    }
    json << "},\n";
    json << "  \"telemetry\": {\"windows\": " << sampler.windowCount()
         << ", \"interval_ms\": " << sampleIntervalMs << "},\n";
    json << "  \"slo\": {\"enabled\": " << (slo ? "true" : "false")
         << ", \"breached\": "
         << (slo && slo->anyBreached() ? "true" : "false")
         << ", \"rules\": [";
    if (slo) {
      bool firstRule = true;
      for (const auto& st : slo->status()) {
        if (!firstRule) json << ", ";
        firstRule = false;
        json << "{\"name\": \"" << obs::jsonEscape(st.rule.name)
             << "\", \"value\": " << st.value << ", \"limit\": " << st.limit
             << ", \"measurable\": " << (st.measurable ? "true" : "false")
             << ", \"breached\": " << (st.breached ? "true" : "false")
             << "}";
      }
    }
    json << "], \"breaches\": [";
    if (slo) {
      bool firstBreach = true;
      for (const auto& b : slo->breaches()) {
        if (!firstBreach) json << ", ";
        firstBreach = false;
        json << "{\"rule\": \"" << obs::jsonEscape(b.rule)
             << "\", \"value\": " << b.value << ", \"limit\": " << b.limit
             << ", \"window\": " << b.windowSeq << "}";
      }
    }
    json << "]},\n";
    json << "  \"jobs\": {";
    first = true;
    for (const auto& [state, count] : jobStates) {
      if (!first) json << ", ";
      first = false;
      json << "\"" << state << "\": " << count;
    }
    json << "}\n}\n";
    const int rc =
        writeValidatedJson(loadReport, json.str(), "serve-load report");
    if (rc != 0) return rc;
  }
  if (!metricsOut.empty()) {
    const int rc = writeValidatedJson(
        metricsOut, obs::metricsJson(obs::registry().snapshot()), "metrics");
    if (rc != 0) return rc;
  }
  if (!expositionOut.empty()) {
    std::string error;
    if (!obs::writeTextFile(expositionOut, scrapeContent(), &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
  }

  // A load run that did no work is a broken run; a breached SLO under
  // --fail-on-slo exits 5 so CI gates can distinguish it from crashes.
  if (opsTotal == 0) return 1;
  if (failOnSlo && slo && slo->anyBreached()) {
    std::cerr << "error: SLO breached (--fail-on-slo)\n";
    return 5;
  }
  return 0;
}

int cmdMonitor(const Args& args) {
  const auto port = portFlag(args, "port");
  const auto intervalMs = unsignedFlag(args, "interval-ms", 1000);
  const auto iterations = unsignedFlag(args, "iterations", 0);

  for (std::uint64_t iter = 0; iterations == 0 || iter < iterations; ++iter) {
    if (iter > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(intervalMs));
    std::string body, error;
    if (!obs::httpGet(port, "/metrics", &body, &error)) {
      if (iter == 0) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      // The load run under observation finished — that's a clean end.
      std::cout << "endpoint gone (" << error << ") — monitor exiting\n";
      return 0;
    }

    std::cout << "--- scrape " << iter << " (127.0.0.1:" << port
              << ") ---\n" << obs::monitorView(body);
    std::cout.flush();
  }
  return 0;
}

void usage() {
  std::cout <<
      "usage: uniq <command> [flags]\n"
      "  calibrate  --out table.uniq [--seed N] [--constrained] [--stops N]\n"
      "             [--report] [--trace-out trace.json]\n"
      "             [--metrics-out metrics.json] [--min-stops N]\n"
      "             [--fail-on-degraded] [--fault KIND]\n"
      "             [--fault-severity X]\n"
      "             exit codes: 0 ok/degraded, 3 degraded with\n"
      "             --fail-on-degraded, 4 failed (fallback table saved)\n"
      "  calibrate-stream --out table.uniq [--seed N] [--constrained]\n"
      "             [--stops N] [--interval-ms X] [--no-early-stop]\n"
      "             [--compare-batch] [--report] [--min-stops N]\n"
      "             [--fault KIND] [--fault-severity X]\n"
      "             [--fail-on-degraded] [--trace-out trace.json]\n"
      "             [--metrics-out metrics.json]\n"
      "             replay the capture through a streaming session\n"
      "             (live coverage hints, early stop on convergence);\n"
      "             same exit codes as calibrate\n"
      "  inspect    --table table.uniq\n"
      "  render     --table table.uniq --in mono.wav --out out.wav\n"
      "             --angle DEG\n"
      "  demo-render --table table.uniq --out out.wav --angle DEG\n"
      "  serve-batch [--users N] [--workers N] [--queue N] [--stops N]\n"
      "              [--seed N] [--deadline-ms X] [--cancel N]\n"
      "              [--cache-capacity N] [--table-dir DIR]\n"
      "              [--aoa-queries N] [--compare-serial] [--min-stops N]\n"
      "              [--fault KIND] [--fault-severity X] [--fault-every N]\n"
      "              [--metrics-out metrics.json]\n"
      "              drives N simulated users through the calibration\n"
      "              service and a batched AoA pass against the cache\n"
      "  serve-load  [--users N] [--duration-s S] [--threads T] [--skew Z]\n"
      "              [--shards K] [--cache-capacity N] [--warm N]\n"
      "              [--workers N] [--queue N] [--seed N]\n"
      "              [--calibrate-interval-ms X] [--aoa-every N]\n"
      "              [--table-dir DIR] [--load-report out.json]\n"
      "              [--metrics-out metrics.json] [--scrape-port P]\n"
      "              [--sample-interval-ms X] [--slo-rules rules.json]\n"
      "              [--fail-on-slo] [--exposition-out metrics.prom]\n"
      "              Zipfian load driver over the serving stack (K =\n"
      "              table-cache shards, default 4): reports p50/p99/p999\n"
      "              latency, tier hit rates, and saturation throughput\n"
      "              (docs/CAPACITY.md). With --scrape-port the run\n"
      "              serves live Prometheus exposition on 127.0.0.1\n"
      "              (0 = ephemeral, port is printed); --slo-rules\n"
      "              evaluates burn-rate SLOs per sampler window and\n"
      "              --fail-on-slo exits 5 on breach (docs/OBSERVABILITY.md)\n"
      "  monitor     --port P [--interval-ms X] [--iterations N]\n"
      "              live terminal view of a serve-load scrape endpoint:\n"
      "              rates, per-window p50/p90/p99, SLO status\n"
      "              (N = 0 polls until the endpoint goes away)\n"
      "  convert     --in table.uniq --out table.uniqq\n"
      "              [--format quantized|float64]\n"
      "              re-encode a table between containers\n";
}

/// A subcommand and every flag it reads; main rejects any other flag, so a
/// typo (--sedd 7) or a retired flag cannot run on defaults in silence.
/// Keep each set in step with what its command (and the *FromArgs helpers
/// it calls) reads.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::set<std::string> flags;
};

/// `flags` plus the ones simulateCaptureFromArgs and
/// pipelineOptionsFromArgs read.
std::set<std::string> withCaptureFlags(std::set<std::string> flags) {
  flags.insert({"constrained", "stops", "fault", "fault-severity",
                "min-stops"});
  return flags;
}

const Command kCommands[] = {
    {"calibrate", &cmdCalibrate,
     withCaptureFlags({"out", "seed", "report", "fail-on-degraded",
                       "trace-out", "metrics-out"})},
    {"calibrate-stream", &cmdCalibrateStream,
     withCaptureFlags({"out", "seed", "report", "fail-on-degraded",
                       "no-early-stop", "compare-batch", "interval-ms",
                       "trace-out", "metrics-out"})},
    {"inspect", &cmdInspect, {"table"}},
    {"render", [](const Args& args) { return cmdRender(args, false); },
     {"table", "in", "out", "angle"}},
    {"demo-render", [](const Args& args) { return cmdRender(args, true); },
     {"table", "out", "angle"}},
    {"serve-batch", &cmdServeBatch,
     {"users", "stops", "seed", "cancel", "aoa-queries", "deadline-ms",
      "compare-serial", "metrics-out", "workers", "queue", "cache-capacity",
      "table-dir", "min-stops", "fault-every", "fault", "fault-severity"}},
    {"serve-load", &cmdServeLoad,
     {"users", "duration-s", "threads", "skew", "shards", "cache-capacity",
      "seed", "warm", "calibrate-interval-ms", "aoa-every", "table-dir",
      "load-report", "metrics-out", "scrape-port", "sample-interval-ms",
      "slo-rules", "fail-on-slo", "exposition-out", "workers", "queue"}},
    {"monitor", &cmdMonitor, {"port", "interval-ms", "iterations"}},
    {"convert", &cmdConvert, {"in", "out", "format"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  const auto command = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& c) { return cmd == c.name; });
  if (command == std::end(kCommands)) {
    usage();
    return 2;
  }
  try {
    const auto args = parseArgs(argc, argv, 2);
    for (const auto& [key, value] : args) {
      if (command->flags.count(key) == 0)
        throw uniq::InvalidArgument("unknown flag --" + key + " for " + cmd);
    }
    return command->run(args);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
