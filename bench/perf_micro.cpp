// Performance micro-benchmarks (google-benchmark) for the hot paths of the
// UNIQ pipeline: FFT, convolution, deconvolution, fractional delay,
// diffraction path queries, localization, the fusion objective, the
// near-field and near-far stages, a whole calibration, HRIR synthesis, and
// the observability primitives (spans, counters, histograms) themselves.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <string>

#include "common/constants.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/aoa.h"
#include "core/channel_extractor.h"
#include "core/localizer.h"
#include "core/near_far.h"
#include "core/near_field_hrtf.h"
#include "core/pipeline.h"
#include "core/sensor_fusion.h"
#include "core/table_io.h"
#include "dsp/convolution.h"
#include "dsp/deconvolution.h"
#include "dsp/fft_plan.h"
#include "dsp/fractional_delay.h"
#include "dsp/signal_generators.h"
#include "geometry/diffraction.h"
#include "geometry/polar.h"
#include "head/hrtf_database.h"
#include "head/subject.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/batch_aoa.h"
#include "serve/calibration_service.h"
#include "serve/table_cache.h"
#include "sim/measurement_session.h"
#include "sim/trajectory.h"
#include "stream/streaming_session.h"

using namespace uniq;

namespace {

// Forward real transform (n samples in, half spectrum out), computed as
// one half-length complex FFT plus a split pass.
void BM_Rfft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Pcg32 rng(8);
  const auto signal = dsp::whiteNoise(n, rng);
  for (auto _ : state) {
    auto half = dsp::rfft(signal);
    benchmark::DoNotOptimize(half);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Rfft)->Arg(1024)->Arg(4096)->Arg(16384);

// Inverse real transform (half spectrum in, n samples out): half of every
// deconvolution's transforms, and GCC-PHAT's last step.
void BM_Irfft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Pcg32 rng(9);
  const auto half = dsp::rfft(dsp::whiteNoise(n, rng));
  for (auto _ : state) {
    auto signal = dsp::irfft(half, n);
    benchmark::DoNotOptimize(signal);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Irfft)->Arg(8192)->Arg(16384);

void BM_ConvolveFft(benchmark::State& state) {
  Pcg32 rng(3);
  const auto signal = dsp::whiteNoise(static_cast<std::size_t>(state.range(0)),
                                      rng);
  const auto kernel = dsp::whiteNoise(256, rng);
  for (auto _ : state) {
    auto out = dsp::convolveFft(signal, kernel);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ConvolveFft)->Arg(4096)->Arg(24000);

// Direct vs FFT convolution for small kernels on a 4096-sample signal.
// The crossover of these two curves justifies kDirectConvolveCutoff in
// dsp/convolution.h; re-run after changing either path.
void BM_ConvolveDirectSmall(benchmark::State& state) {
  Pcg32 rng(9);
  const auto signal = dsp::whiteNoise(4096, rng);
  const auto kernel =
      dsp::whiteNoise(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto out = dsp::convolveDirect(signal, kernel);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ConvolveDirectSmall)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_ConvolveFftSmall(benchmark::State& state) {
  Pcg32 rng(9);
  const auto signal = dsp::whiteNoise(4096, rng);
  const auto kernel =
      dsp::whiteNoise(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto out = dsp::convolveFft(signal, kernel);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ConvolveFftSmall)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_Deconvolve(benchmark::State& state) {
  Pcg32 rng(4);
  const auto chirp = dsp::linearChirp(100.0, 20000.0, 960, 48000.0);
  std::vector<double> channel(128, 0.0);
  channel[30] = 1.0;
  channel[50] = 0.4;
  auto received = dsp::convolve(chirp, channel);
  dsp::addNoiseSnrDb(received, 25.0, rng);
  for (auto _ : state) {
    auto h = dsp::deconvolve(received, chirp);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_Deconvolve);

// One fractional shift at the default half-width: 192 samples is an HRIR
// (the near-field and near-far stages' unit of work), 4096 a recording.
void BM_FractionalShift(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Pcg32 rng(10);
  const auto signal = dsp::whiteNoise(n, rng);
  for (auto _ : state) {
    auto out = dsp::fractionalShift(signal, 3.37);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FractionalShift)->Arg(192)->Arg(4096);

void BM_NearFieldPath(benchmark::State& state) {
  const geo::HeadBoundary head(0.075, 0.103, 0.091,
                               static_cast<std::size_t>(state.range(0)));
  const geo::Vec2 source = geo::pointFromPolarDeg(40.0, 0.35);
  for (auto _ : state) {
    auto path = geo::nearFieldPath(head, source, geo::Ear::kRight);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_NearFieldPath)->Arg(128)->Arg(256)->Arg(512);

void BM_LocalizerLocate(benchmark::State& state) {
  const geo::HeadBoundary head(0.075, 0.103, 0.091, 128);
  const geo::Vec2 source = geo::pointFromPolarDeg(55.0, 0.35);
  const double tL =
      geo::nearFieldPath(head, source, geo::Ear::kLeft).length /
      kSpeedOfSound;
  const double tR =
      geo::nearFieldPath(head, source, geo::Ear::kRight).length /
      kSpeedOfSound;
  const core::Localizer localizer(head);
  for (auto _ : state) {
    auto fix = localizer.locate(tL, tR, 55.0);
    benchmark::DoNotOptimize(fix);
  }
}
BENCHMARK(BM_LocalizerLocate);

void BM_FusionObjective(benchmark::State& state) {
  const head::HeadParameters truth{0.071, 0.104, 0.089};
  const geo::HeadBoundary head(truth.a, truth.b, truth.c, 256);
  std::vector<core::FusionMeasurement> measurements;
  for (int i = 0; i < 36; ++i) {
    const double theta = 5.0 + 170.0 * i / 35.0;
    const geo::Vec2 pos = geo::pointFromPolarDeg(theta, 0.35);
    core::FusionMeasurement m;
    m.imuAngleDeg = theta;
    m.delayLeftSec =
        geo::nearFieldPath(head, pos, geo::Ear::kLeft).length / kSpeedOfSound;
    m.delayRightSec =
        geo::nearFieldPath(head, pos, geo::Ear::kRight).length /
        kSpeedOfSound;
    measurements.push_back(m);
  }
  const core::SensorFusion fusion;
  // Timed nested, as on a serve worker: the objective's localization loop
  // runs inline, so this is the serial per-evaluation CPU a job pays.
  common::parallelFor(0, 1, [&](std::size_t) {
    for (auto _ : state) {
      const double cost = fusion.objective(truth, measurements);
      benchmark::DoNotOptimize(cost);
    }
  });
}
BENCHMARK(BM_FusionObjective);

// One whole fusion stage: solveRobust (reject rounds included) on the
// quality-gated measurements of `uniq calibrate --seed 42`, with a fresh
// SensorFusion (empty geometry cache) per iteration as each calibration
// builds one. Timed nested like BM_FusionObjective: the serial CPU a serve
// worker's calibration pays for fusion.
void BM_FusionSolveRobust(benchmark::State& state) {
  static const auto measurements = [] {
    const auto subject = head::makePopulation(1, 42)[0];
    const sim::MeasurementSession session;
    const auto capture = session.run(subject, sim::defaultGesture());
    const core::CalibrationPipeline pipeline;
    const auto channels = pipeline.extractChannels(capture);
    auto out = pipeline.toFusionMeasurements(capture, channels);
    std::erase_if(out, [&](const core::FusionMeasurement& m) {
      return channels[m.sourceIndex].quality.gated();
    });
    return out;
  }();
  obs::Counter& counter = obs::registry().counter("dsf.objective.evals");
  std::uint64_t evals = 0;
  common::parallelFor(0, 1, [&](std::size_t) {
    for (auto _ : state) {
      const std::uint64_t before = counter.value();
      const core::SensorFusion fusion;
      auto result = fusion.solveRobust(measurements);
      benchmark::DoNotOptimize(result);
      evals = counter.value() - before;
    }
  });
  state.counters["objective_evals"] = static_cast<double>(evals);
}
BENCHMARK(BM_FusionSolveRobust)->Unit(benchmark::kMillisecond);

void BM_GroundTruthHrir(benchmark::State& state) {
  head::Subject s;
  s.headParams = {0.075, 0.103, 0.091};
  s.pinnaSeed = 5;
  const head::HrtfDatabase db(s);
  for (auto _ : state) {
    auto hrir = db.farField(60.0);
    benchmark::DoNotOptimize(hrir);
  }
}
BENCHMARK(BM_GroundTruthHrir);

void BM_RenderBinaural(benchmark::State& state) {
  head::Subject s;
  s.headParams = {0.075, 0.103, 0.091};
  s.pinnaSeed = 6;
  const head::HrtfDatabase db(s);
  const auto hrir = db.farField(45.0);
  Pcg32 rng(7);
  const auto mono = dsp::whiteNoise(48000, rng, 0.2);
  for (auto _ : state) {
    auto out = head::renderBinaural(hrir, mono);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 48000);
}
BENCHMARK(BM_RenderBinaural);

// Cost of one recorded span when tracing is runtime-enabled. The trace is
// drained every 64k spans so the per-thread buffers stay bounded; the clear
// amortizes to noise.
void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::setTraceEnabled(true);
  obs::clearTrace();
  std::uint64_t i = 0;
  for (auto _ : state) {
    UNIQ_SPAN("bench.span");
    if ((++i & 0xFFFF) == 0) obs::clearTrace();
  }
  obs::clearTrace();
}
BENCHMARK(BM_ObsSpanEnabled);

// Cost of a span when tracing is runtime-disabled: the ceiling on what
// instrumented-but-quiet code pays (compile-time OFF pays exactly zero).
void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::setTraceEnabled(false);
  for (auto _ : state) {
    UNIQ_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  obs::setTraceEnabled(true);
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsCounterInc(benchmark::State& state) {
  static obs::Counter& c = obs::registry().counter("bench.counter");
  for (auto _ : state) c.inc();
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  static obs::Histogram& h = obs::registry().histogram(
      "bench.histogram", obs::HistogramOptions{1e-6, 2.0, 32});
  double v = 1e-6;
  for (auto _ : state) {
    h.observe(v);
    v = v < 1.0 ? v * 1.01 : 1e-6;
  }
}
BENCHMARK(BM_ObsHistogramObserve);

// --- Serving layer ------------------------------------------------------

/// Shared fixture state for the serve benchmarks: a small fleet of distinct
/// captures, simulated once. 8 stops keeps one calibration around a second
/// so the throughput benchmarks finish in sane time while still running the
/// full pipeline.
const std::vector<std::shared_ptr<const sim::CalibrationCapture>>&
serveCaptures() {
  static const auto captures = [] {
    std::vector<std::shared_ptr<const sim::CalibrationCapture>> out;
    const sim::MeasurementSession session;
    auto gesture = sim::defaultGesture();
    gesture.stops = 8;
    const auto subjects = head::makePopulation(4, 1234);
    for (const auto& subject : subjects)
      out.push_back(std::make_shared<const sim::CalibrationCapture>(
          session.run(subject, gesture)));
    return out;
  }();
  return captures;
}

// One stop through the extract stage: both ears deconvolved against the
// capture's chirp (hardware-compensated), quality evidence, first taps and
// room-reflection windowing. The extractor lives across iterations, as it
// does across a calibration's stops, so the source spectrum is computed
// once up front.
void BM_ExtractStop(benchmark::State& state) {
  const auto& capture = *serveCaptures().front();
  const core::ChannelExtractor extractor(capture.hardwareResponseEstimate,
                                         capture.sampleRate);
  const auto& stop = capture.stops.front();
  for (auto _ : state) {
    auto channel = extractor.extract(stop.recording.left,
                                     stop.recording.right,
                                     capture.sourceSignal);
    benchmark::DoNotOptimize(channel);
  }
}
BENCHMARK(BM_ExtractStop)->Unit(benchmark::kMillisecond);

// The near-field stage alone: one capture's fused stops and extracted
// channels in, the 181-degree near-field table out. Timed nested, as on a
// serve worker, so the per-degree loop runs inline and cpu_time is the
// stage's whole cost.
void BM_NearFieldBuild(benchmark::State& state) {
  const auto& capture = *serveCaptures().front();
  const core::CalibrationPipeline pipeline;
  const auto channels = pipeline.extractChannels(capture);
  const auto fusion = pipeline.run(capture).fusion;
  std::vector<core::FusedStop> stops(capture.stops.size());
  for (std::size_t i = 0; i < stops.size(); ++i) stops[i].sourceIndex = i;
  for (const auto& s : fusion.stops) stops[s.sourceIndex] = s;
  const core::NearFieldHrtfBuilder builder;
  common::parallelFor(0, 1, [&](std::size_t) {
    for (auto _ : state) {
      auto table = builder.build(stops, channels, fusion.headParams);
      benchmark::DoNotOptimize(table);
    }
  });
}
BENCHMARK(BM_NearFieldBuild)->Unit(benchmark::kMillisecond);

// The near-far stage alone on a fixed near-field table: one subject's
// ground-truth near field at 0.35 m converted to the 181-degree far field.
void BM_NearFarConvert(benchmark::State& state) {
  head::Subject s;
  s.headParams = {0.075, 0.103, 0.091};
  s.pinnaSeed = 11;
  const head::HrtfDatabase db(s);
  const auto nearTable = core::nearTableFromDatabase(db, 0.35);
  const core::NearFarConverter converter;
  for (auto _ : state) {
    auto far = converter.convert(nearTable);
    benchmark::DoNotOptimize(far);
  }
}
BENCHMARK(BM_NearFarConvert)->Unit(benchmark::kMillisecond);

// One whole calibration: the 36-stop capture `uniq calibrate --seed 42`
// simulates, through CalibrationPipeline::run. Timed nested inside a
// one-index parallelFor, as on a loaded serve worker, so every stage runs
// serially and cpu_time is the calibration's whole cost. Each RunReport
// stage's wall time is exported as a per-iteration counter (<stage>_ms).
void BM_CalibrateEndToEnd(benchmark::State& state) {
  static const auto capture = [] {
    const sim::MeasurementSession session;
    return session.run(head::makePopulation(1, 42)[0], sim::defaultGesture());
  }();
  const core::CalibrationPipeline pipeline;
  std::map<std::string, double> stageMs;
  common::parallelFor(0, 1, [&](std::size_t) {
    for (auto _ : state) {
      obs::RunReport report;
      auto personal = pipeline.run(capture, &report);
      benchmark::DoNotOptimize(personal);
      for (const auto& stage : report.stages)
        stageMs[stage.name] += stage.wallMs;
    }
  });
  for (const auto& [name, ms] : stageMs)
    state.counters[name + "_ms"] =
        benchmark::Counter(ms, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CalibrateEndToEnd)->Unit(benchmark::kMillisecond);

// Calibration throughput through the concurrent service (submit + drain).
// Compare against BM_ServeSerialCalibration: on an N-core host the ratio is
// the service's speedup; on a single core it measures scheduling overhead.
// Pool-backed benchmarks (this one, the BM_Streaming* pair, BM_ServeBatchAoa)
// use UseRealTime(): their cpu_time counts only the main thread and misses
// the work on pool workers, so wall time is the figure that means anything.
void BM_ServeBatchCalibration(benchmark::State& state) {
  const auto& captures = serveCaptures();
  const auto users = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    serve::CalibrationServiceOptions opts;
    opts.maxQueued = users;
    opts.cacheCapacity = users;
    serve::CalibrationService service(opts);
    for (std::size_t i = 0; i < users; ++i)
      service.submit("user" + std::to_string(i), captures[i % captures.size()]);
    auto results = service.drain();
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(users));
}
BENCHMARK(BM_ServeBatchCalibration)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The pre-service baseline: the same captures, one pipeline run at a time.
void BM_ServeSerialCalibration(benchmark::State& state) {
  const auto& captures = serveCaptures();
  const auto users = static_cast<std::size_t>(state.range(0));
  const core::CalibrationPipeline pipeline;
  for (auto _ : state) {
    for (std::size_t i = 0; i < users; ++i) {
      auto personal = pipeline.run(*captures[i % captures.size()]);
      benchmark::DoNotOptimize(personal);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(users));
}
BENCHMARK(BM_ServeSerialCalibration)->Arg(4)->Unit(benchmark::kMillisecond);

// End-to-end live streaming calibration: push every stop and read
// coverage() after each push, as `uniq calibrate-stream` does (the read runs
// that push's warm-started incremental solve on this thread), then
// finalize, whose batch stages fan out on the global pool. Compare against
// BM_StreamingReplay: the delta is the price of the incremental solves,
// paid to get live coverage/convergence feedback during the sweep.
void BM_StreamingSession(benchmark::State& state) {
  const auto& captures = serveCaptures();
  const auto& capture = *captures.front();
  for (auto _ : state) {
    stream::StreamingSession session(
        stream::CaptureHeader::fromCapture(capture));
    for (std::size_t i = 0; i < capture.stops.size(); ++i) {
      session.push(capture.stops[i], i);
      benchmark::DoNotOptimize(session.coverage());
    }
    auto result = session.finalize();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(capture.stops.size()));
}
BENCHMARK(BM_StreamingSession)->Unit(benchmark::kMillisecond)->UseRealTime();

// A streaming session nobody reads: push every stop, then finalize — what
// a CalibrationService streaming job costs. No incremental solve runs.
void BM_StreamingReplay(benchmark::State& state) {
  const auto& captures = serveCaptures();
  const auto& capture = *captures.front();
  for (auto _ : state) {
    stream::StreamingSession session(
        stream::CaptureHeader::fromCapture(capture));
    for (std::size_t i = 0; i < capture.stops.size(); ++i)
      session.push(capture.stops[i], i);
    auto result = session.finalize();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(capture.stops.size()));
}
BENCHMARK(BM_StreamingReplay)->Unit(benchmark::kMillisecond)->UseRealTime();

// Batched known-source AoA against cached tables: the steady-state query
// path (FFT plan cache warm after iteration one).
void BM_ServeBatchAoa(benchmark::State& state) {
  const auto queries = static_cast<std::size_t>(state.range(0));
  static serve::TableCache cache(serve::TableCacheOptions{
      .capacity = 4, .persistDir = "", .shards = 1});
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  const double fs = table->sampleRate();
  for (std::size_t u = 0; u < 4; ++u)
    cache.put("user" + std::to_string(u), table);
  const auto chirp = dsp::linearChirp(
      200.0, 16000.0, static_cast<std::size_t>(0.05 * fs), fs);
  std::vector<serve::AoaQuery> batch(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    const auto rendered =
        table->renderFar(30.0 + static_cast<double>(q * 17 % 120), chirp);
    batch[q].userId = "user" + std::to_string(q % 4);
    batch[q].left = rendered.left;
    batch[q].right = rendered.right;
    batch[q].source = chirp;
  }
  const serve::BatchAoaEngine engine(cache);
  for (auto _ : state) {
    auto answers = engine.run(batch);
    benchmark::DoNotOptimize(answers);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(queries));
}
BENCHMARK(BM_ServeBatchAoa)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One AoA query against one estimator on the population-average table,
// timed nested inside a one-index parallelFor: the serial path a query
// client takes, with the candidate sweeps inline. Recordings match the
// query workload's: the phone's 50 ms probe chirp (known source) and
// 100 ms of white noise (unknown source), rendered at 60 degrees.
void BM_AoaEstimateKnown(benchmark::State& state) {
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  const double fs = table->sampleRate();
  const auto samples = static_cast<std::size_t>(0.05 * fs);
  const auto chirp = dsp::linearChirp(100.0, 0.42 * fs, samples, fs);
  const auto rec = table->renderFar(60.0, chirp);
  const core::AoaEstimator estimator(table->farTable());
  common::parallelFor(0, 1, [&](std::size_t) {
    for (auto _ : state) {
      auto est = estimator.estimateKnown(rec.left, rec.right, chirp);
      benchmark::DoNotOptimize(est);
    }
  });
}
BENCHMARK(BM_AoaEstimateKnown)->Unit(benchmark::kMillisecond);

// The estimator lives across iterations, so this is the warm-cache cost;
// the first query of a batch also pays its templates' transforms.
void BM_AoaEstimateUnknown(benchmark::State& state) {
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  const double fs = table->sampleRate();
  const auto samples = static_cast<std::size_t>(0.1 * fs);
  Pcg32 rng(17);
  const auto noise = dsp::whiteNoise(samples, rng, 0.25);
  const auto rec = table->renderFar(60.0, noise);
  const core::AoaEstimator estimator(table->farTable());
  common::parallelFor(0, 1, [&](std::size_t) {
    for (auto _ : state) {
      auto est = estimator.estimateUnknown(rec.left, rec.right);
      benchmark::DoNotOptimize(est);
    }
  });
}
BENCHMARK(BM_AoaEstimateUnknown)->Unit(benchmark::kMillisecond);

// As BM_AoaEstimateUnknown, but with a fresh estimator per iteration, as
// BatchAoaEngine builds one per user per batch: every query also pays the
// template transforms of its candidate angles.
void BM_AoaEstimateUnknownCold(benchmark::State& state) {
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  const double fs = table->sampleRate();
  const auto samples = static_cast<std::size_t>(0.1 * fs);
  Pcg32 rng(17);
  const auto noise = dsp::whiteNoise(samples, rng, 0.25);
  const auto rec = table->renderFar(60.0, noise);
  common::parallelFor(0, 1, [&](std::size_t) {
    for (auto _ : state) {
      const core::AoaEstimator estimator(table->farTable());
      auto est = estimator.estimateUnknown(rec.left, rec.right);
      benchmark::DoNotOptimize(est);
    }
  });
}
BENCHMARK(BM_AoaEstimateUnknownCold)->Unit(benchmark::kMillisecond);

// Hit-path latency of the LRU table cache under a realistic key mix.
void BM_TableCacheGet(benchmark::State& state) {
  serve::TableCacheOptions opts;
  opts.capacity = 64;
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  for (std::size_t u = 0; u < 64; ++u)
    cache.put("user" + std::to_string(u), table);
  std::size_t u = 0;
  for (auto _ : state) {
    auto hit = cache.get("user" + std::to_string(u));
    benchmark::DoNotOptimize(hit);
    u = (u + 7) % 64;
  }
}
BENCHMARK(BM_TableCacheGet);

// Same hit-path, sharded. Arg = shard count; Arg(1) is the legacy single
// mutex. Single-threaded the sharded map should cost the same few ns per
// get (one extra hash-and-mask); under contention the shards are what keep
// lookups from serializing, which BM_TableCacheGetContended measures.
void BM_TableCacheGetSharded(benchmark::State& state) {
  serve::TableCacheOptions opts;
  opts.capacity = 64;
  opts.shards = static_cast<std::size_t>(state.range(0));
  serve::TableCache cache(opts);
  const auto table = serve::TableCache::populationAverageTable(48000.0);
  for (std::size_t u = 0; u < 64; ++u)
    cache.put("user" + std::to_string(u), table);
  std::size_t u = 0;
  for (auto _ : state) {
    auto hit = cache.get("user" + std::to_string(u));
    benchmark::DoNotOptimize(hit);
    u = (u + 7) % 64;
  }
}
BENCHMARK(BM_TableCacheGetSharded)->Arg(1)->Arg(4);

// Hit-path under thread contention: every benchmark thread hammers the same
// cache. Run with Threads(2/4); the per-op time at Arg(1) vs Arg(4) is the
// lock-convoy cost sharding removes.
void BM_TableCacheGetContended(benchmark::State& state) {
  static serve::TableCache* cache = nullptr;
  if (state.thread_index() == 0) {
    serve::TableCacheOptions opts;
    opts.capacity = 64;
    opts.shards = static_cast<std::size_t>(state.range(0));
    cache = new serve::TableCache(opts);
    const auto table = serve::TableCache::populationAverageTable(48000.0);
    for (std::size_t u = 0; u < 64; ++u)
      cache->put("user" + std::to_string(u), table);
  }
  std::size_t u = static_cast<std::size_t>(state.thread_index()) * 13;
  for (auto _ : state) {
    auto hit = cache->get("user" + std::to_string(u % 64));
    benchmark::DoNotOptimize(hit);
    u += 7;
  }
  if (state.thread_index() == 0) {
    delete cache;
    cache = nullptr;
  }
}
BENCHMARK(BM_TableCacheGetContended)->Arg(1)->Arg(4)->Threads(2);

// --- Table serialization ------------------------------------------------

/// One personalized table shared by the serialization benchmarks, plus its
/// two on-disk encodings in the build's temp dir (written once).
const core::HrtfTable& benchTable() {
  static const auto table = [] {
    const core::CalibrationPipeline pipeline;
    return pipeline.run(*serveCaptures().front()).table;
  }();
  return table;
}

std::string benchTablePath(const char* suffix) {
  const auto dir = std::filesystem::temp_directory_path() / "uniq_bench_io";
  std::filesystem::create_directories(dir);
  return (dir / (std::string("table") + suffix)).string();
}

void BM_TableSaveFloat64(benchmark::State& state) {
  const auto& table = benchTable();
  const auto path = benchTablePath(".uniq");
  for (auto _ : state) core::saveHrtfTable(path, table);
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(std::filesystem::file_size(path)));
}
BENCHMARK(BM_TableSaveFloat64)->Unit(benchmark::kMillisecond);

void BM_TableSaveQuantized(benchmark::State& state) {
  const auto& table = benchTable();
  const auto path = benchTablePath(".uniqq");
  for (auto _ : state) core::saveHrtfTableQuantized(path, table);
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(std::filesystem::file_size(path)));
}
BENCHMARK(BM_TableSaveQuantized)->Unit(benchmark::kMillisecond);

void BM_TableLoadFloat64(benchmark::State& state) {
  const auto path = benchTablePath(".uniq");
  core::saveHrtfTable(path, benchTable());
  for (auto _ : state) {
    auto table = core::loadHrtfTable(path);
    benchmark::DoNotOptimize(table);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(std::filesystem::file_size(path)));
}
BENCHMARK(BM_TableLoadFloat64)->Unit(benchmark::kMillisecond);

// The serving disk tier's read path: quantized file through the mmap view.
void BM_TableLoadQuantizedMmap(benchmark::State& state) {
  const auto path = benchTablePath(".uniqq");
  core::saveHrtfTableQuantized(path, benchTable());
  for (auto _ : state) {
    auto table = core::loadHrtfTable(path);
    benchmark::DoNotOptimize(table);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(std::filesystem::file_size(path)));
}
BENCHMARK(BM_TableLoadQuantizedMmap)->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled main (instead of BENCHMARK_MAIN) so a run can be asked for
// its metrics JSON via the UNIQ_METRICS_OUT environment variable.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  obs::exportMetricsIfRequested();
  return 0;
}
