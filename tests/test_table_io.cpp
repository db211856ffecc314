#include "core/table_io.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/error.h"
#include "core/near_field_hrtf.h"
#include "eval/metrics.h"
#include "head/hrtf_database.h"
#include "serve/table_cache.h"

namespace uniq::core {
namespace {

std::string tempPath(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

/// A compact synthetic table pair straight from a ground-truth database.
HrtfTable makeTable() {
  head::Subject s;
  s.headParams = {0.074, 0.104, 0.09};
  s.pinnaSeed = 101;
  head::HrtfDatabase::Options dbOpts;
  dbOpts.sampleRate = 48000.0;
  const head::HrtfDatabase db(s, dbOpts);
  auto far = farTableFromDatabase(db);
  NearFieldTable nearTable;
  nearTable.sampleRate = far.sampleRate;
  nearTable.headParams = far.headParams;
  nearTable.medianRadiusM = 0.35;
  nearTable.byDegree.resize(181);
  nearTable.tapLeftSamples.assign(181, 24.0);
  nearTable.tapRightSamples.assign(181, 28.0);
  for (int deg = 0; deg <= 180; ++deg) {
    nearTable.byDegree[deg] = db.nearField(static_cast<double>(deg), 0.35);
  }
  return HrtfTable(std::move(nearTable), std::move(far));
}

TEST(TableIo, RoundTripPreservesEverything) {
  const auto table = makeTable();
  const auto path = tempPath("table.uniq");
  saveHrtfTable(path, table);
  const auto loaded = loadHrtfTable(path);

  EXPECT_DOUBLE_EQ(loaded.sampleRate(), table.sampleRate());
  EXPECT_DOUBLE_EQ(loaded.nearTable().headParams.a,
                   table.nearTable().headParams.a);
  EXPECT_DOUBLE_EQ(loaded.nearTable().medianRadiusM,
                   table.nearTable().medianRadiusM);
  for (int deg : {0, 37, 90, 144, 180}) {
    const auto& a = table.farAt(deg);
    const auto& b = loaded.farAt(deg);
    ASSERT_EQ(a.left.size(), b.left.size());
    for (std::size_t i = 0; i < a.left.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.left[i], b.left[i]);
      EXPECT_DOUBLE_EQ(a.right[i], b.right[i]);
    }
    EXPECT_DOUBLE_EQ(
        table.farTable().tapLeftSamples[deg],
        loaded.farTable().tapLeftSamples[deg]);
    const auto& na = table.nearAt(deg);
    const auto& nb = loaded.nearAt(deg);
    for (std::size_t i = 0; i < na.left.size(); ++i)
      EXPECT_DOUBLE_EQ(na.left[i], nb.left[i]);
  }
  std::remove(path.c_str());
}

TEST(TableIo, LoadedTableRendersIdentically) {
  const auto table = makeTable();
  const auto path = tempPath("table2.uniq");
  saveHrtfTable(path, table);
  const auto loaded = loadHrtfTable(path);
  const std::vector<double> click{1.0, -0.5, 0.25};
  const auto a = table.renderFar(72.0, click);
  const auto b = loaded.renderFar(72.0, click);
  for (std::size_t i = 0; i < a.left.size(); ++i)
    EXPECT_DOUBLE_EQ(a.left[i], b.left[i]);
  std::remove(path.c_str());
}

TEST(TableIo, RejectsMissingFile) {
  EXPECT_THROW(loadHrtfTable("/nonexistent/table.uniq"), InvalidArgument);
}

TEST(TableIo, RejectsWrongMagic) {
  const auto path = tempPath("bad_magic.uniq");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTUNIQHRTFDATA-and-some-padding-to-be-long-enough";
  }
  EXPECT_THROW(loadHrtfTable(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(TableIo, RejectsTruncatedFile) {
  const auto table = makeTable();
  const auto path = tempPath("truncated.uniq");
  saveHrtfTable(path, table);
  // Truncate to the first kilobyte.
  std::string contents;
  {
    std::ifstream is(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(contents.data(), 1024);
  }
  EXPECT_THROW(loadHrtfTable(path), Error);
  std::remove(path.c_str());
}

TEST(TableIo, CorruptPayloadReportsByteOffset) {
  const auto table = makeTable();
  const auto path = tempPath("corrupt_payload.uniq");
  saveHrtfTable(path, table);
  std::string contents;
  {
    std::ifstream is(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(contents.size(), 4096u);
  // Stomp 64 bytes mid-file: depending on alignment this lands in HRIR
  // samples (all-ones doubles are NaN) or a length prefix (absurd length).
  // Either way the loader must refuse with a pinpointed byte offset.
  for (std::size_t i = 0; i < 64; ++i)
    contents[contents.size() / 2 + i] = '\xFF';
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }
  try {
    loadHrtfTable(path);
    FAIL() << "corrupted table must not load";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << "message should locate the corruption: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(TableIo, RejectsNaNSample) {
  const auto table = makeTable();
  const auto path = tempPath("nan_sample.uniq");
  saveHrtfTable(path, table);
  std::string contents;
  {
    std::ifstream is(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
  }
  // Rewrite one known payload double as a quiet NaN: makeTable stores 24.0
  // in every near-field left tap, so the byte pattern of 24.0 marks a real
  // IEEE-double slot in the file.
  const double marker = 24.0;
  std::string needle(sizeof marker, '\0');
  std::memcpy(needle.data(), &marker, sizeof marker);
  const std::size_t slot = contents.find(needle);
  ASSERT_NE(slot, std::string::npos);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&contents[slot], &nan, sizeof nan);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }
  EXPECT_THROW(loadHrtfTable(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(TableIo, RejectsTrailingGarbage) {
  const auto table = makeTable();
  const auto path = tempPath("trailing.uniq");
  saveHrtfTable(path, table);
  const auto size = std::filesystem::file_size(path);
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << 'x';
  }
  try {
    loadHrtfTable(path);
    FAIL() << "float64 table with a trailing byte must not load";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes after the table at "
                                         "byte offset " +
                                         std::to_string(size)),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TableIo, RejectsEmptyFileAndDirectory) {
  // mmap cannot map an empty file and refuses a directory; both must still
  // fail as malformed input, through every entry point that reads tables.
  const auto empty = tempPath("empty.uniqq");
  { std::ofstream os(empty, std::ios::binary | std::ios::trunc); }
  const auto dir = tempPath("table_dir");
  std::filesystem::create_directories(dir);
  for (const auto& path : {empty, dir}) {
    EXPECT_THROW(loadHrtfTable(path), InvalidArgument) << path;
    std::string error;
    EXPECT_FALSE(tryLoadHrtfTable(path, &error).has_value()) << path;
    EXPECT_FALSE(error.empty()) << path;
  }
  try {
    loadHrtfTable(empty);
    FAIL() << "empty table file must not load";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("magic at byte offset 0"),
              std::string::npos)
        << e.what();
  }

  // A directory squatting on a user's disk-tier path is a plain miss.
  const auto persistDir = tempPath("table_cache_dir");
  std::filesystem::create_directories(persistDir + "/squatter.uniqq");
  serve::TableCacheOptions opts;
  opts.capacity = 1;
  opts.persistDir = persistDir;
  serve::TableCache cache(opts);
  serve::CacheTier tier = serve::CacheTier::kDisk;
  EXPECT_EQ(cache.get("squatter", &tier), nullptr);
  EXPECT_EQ(tier, serve::CacheTier::kMiss);

  std::remove(empty.c_str());
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(persistDir);
}

/// Files in `dir` (the saved table plus anything a save left behind).
std::size_t entriesIn(const std::string& dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir))
    ++n;
  return n;
}

/// Caps the size of any file this process writes (RLIMIT_FSIZE) for the
/// guard's lifetime, so a write past the cap fails with EFBIG instead of
/// raising SIGXFSZ.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    previousHandler_ = std::signal(SIGXFSZ, SIG_IGN);
    ::getrlimit(RLIMIT_FSIZE, &previous_);
    rlimit capped = previous_;
    capped.rlim_cur = bytes;
    ::setrlimit(RLIMIT_FSIZE, &capped);
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &previous_);
    std::signal(SIGXFSZ, previousHandler_);
  }
  FileSizeCap(const FileSizeCap&) = delete;
  FileSizeCap& operator=(const FileSizeCap&) = delete;

 private:
  rlimit previous_{};
  void (*previousHandler_)(int) = SIG_DFL;
};

TEST(TableIo, FailedSaveLeavesPreviousFileIntact) {
  // A save that fails halfway (here: the disk refuses bytes past half the
  // file) must leave the previous table loadable and no temp file behind.
  const auto dir = tempPath("failed_save_f64");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = dir + "/user.uniq";
  const auto table = makeTable();
  saveHrtfTable(path, table);
  const auto size = std::filesystem::file_size(path);
  {
    const FileSizeCap cap(static_cast<rlim_t>(size / 2));
    EXPECT_THROW(saveHrtfTable(path, table), Error);
  }
  EXPECT_EQ(std::filesystem::file_size(path), size);
  std::string error;
  EXPECT_TRUE(tryLoadHrtfTable(path, &error).has_value()) << error;
  EXPECT_EQ(entriesIn(dir), 1u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Quantized container (UNIQHRTQ)
// ---------------------------------------------------------------------------

/// Max |sample| of one degree entry over both ears — the reference the
/// per-degree quantization scale is derived from.
double degreePeak(const head::Hrir& h) {
  double peak = 0.0;
  for (const double v : h.left) peak = std::max(peak, std::abs(v));
  for (const double v : h.right) peak = std::max(peak, std::abs(v));
  return peak;
}

TEST(TableIoQuantized, RoundTripWithinPinnedErrorBudget) {
  const auto table = makeTable();
  const auto path = tempPath("table_q.uniqq");
  saveHrtfTableQuantized(path, table);
  const auto loaded = loadHrtfTable(path);

  EXPECT_DOUBLE_EQ(loaded.sampleRate(), table.sampleRate());
  EXPECT_DOUBLE_EQ(loaded.nearTable().headParams.a,
                   table.nearTable().headParams.a);
  EXPECT_DOUBLE_EQ(loaded.nearTable().medianRadiusM,
                   table.nearTable().medianRadiusM);

  // Every sample of every degree must land within the documented budget:
  // kQuantSampleError times that degree's peak (the int16 grid step is
  // peak/32767, so half a step plus float32-scale rounding fits in it).
  for (int deg = 0; deg <= 180; ++deg) {
    for (const bool nearField : {true, false}) {
      const auto& a = nearField ? table.nearAt(deg) : table.farAt(deg);
      const auto& b = nearField ? loaded.nearAt(deg) : loaded.farAt(deg);
      ASSERT_EQ(a.left.size(), b.left.size());
      const double budget = kQuantSampleError * degreePeak(a);
      for (std::size_t i = 0; i < a.left.size(); ++i) {
        EXPECT_NEAR(a.left[i], b.left[i], budget);
        EXPECT_NEAR(a.right[i], b.right[i], budget);
      }
    }
    EXPECT_NEAR(table.farTable().tapLeftSamples[deg],
                loaded.farTable().tapLeftSamples[deg],
                kQuantTapErrorSamples);
    EXPECT_NEAR(table.farTable().tapRightSamples[deg],
                loaded.farTable().tapRightSamples[deg],
                kQuantTapErrorSamples);
    EXPECT_NEAR(table.nearTable().tapLeftSamples[deg],
                loaded.nearTable().tapLeftSamples[deg],
                kQuantTapErrorSamples);
  }
  std::remove(path.c_str());
}

TEST(TableIoQuantized, AtLeastFourTimesSmallerThanFloat64) {
  const auto table = makeTable();
  const auto pathF = tempPath("size_f.uniq");
  const auto pathQ = tempPath("size_q.uniqq");
  saveHrtfTable(pathF, table);
  saveHrtfTableQuantized(pathQ, table);
  std::ifstream f(pathF, std::ios::binary | std::ios::ate);
  std::ifstream q(pathQ, std::ios::binary | std::ios::ate);
  const auto sizeF = static_cast<double>(f.tellg());
  const auto sizeQ = static_cast<double>(q.tellg());
  ASSERT_GT(sizeQ, 0.0);
  EXPECT_GE(sizeF / sizeQ, 4.0)
      << "quantized container must be >= 4x smaller (float64 " << sizeF
      << " bytes, quantized " << sizeQ << " bytes)";
  std::remove(pathF.c_str());
  std::remove(pathQ.c_str());
}

TEST(TableIoQuantized, ProbeAndTryLoadAutoDetectBothFormats) {
  const auto table = makeTable();
  const auto pathF = tempPath("probe_f.uniq");
  const auto pathQ = tempPath("probe_q.uniqq");
  saveHrtfTable(pathF, table);
  saveHrtfTableQuantized(pathQ, table);

  ASSERT_TRUE(probeTableFormat(pathF).has_value());
  EXPECT_EQ(*probeTableFormat(pathF), TableFormat::kFloat64);
  ASSERT_TRUE(probeTableFormat(pathQ).has_value());
  EXPECT_EQ(*probeTableFormat(pathQ), TableFormat::kQuantized);
  std::string error;
  EXPECT_FALSE(probeTableFormat("/nonexistent/x.uniq", &error).has_value());
  EXPECT_FALSE(error.empty());

  const auto loadedF = tryLoadHrtfTable(pathF);
  const auto loadedQ = tryLoadHrtfTable(pathQ);
  ASSERT_TRUE(loadedF.has_value());
  ASSERT_TRUE(loadedQ.has_value());
  EXPECT_DOUBLE_EQ(loadedF->sampleRate(), loadedQ->sampleRate());
  std::remove(pathF.c_str());
  std::remove(pathQ.c_str());
}

TEST(TableIoQuantized, RejectsWrongVersion) {
  const auto table = makeTable();
  const auto path = tempPath("bad_version.uniqq");
  saveHrtfTableQuantized(path, table);
  std::string contents;
  {
    std::ifstream is(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
  }
  // The u32 version sits right after the 8-byte magic.
  const std::uint32_t bogus = 99;
  std::memcpy(&contents[8], &bogus, sizeof bogus);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }
  try {
    loadHrtfTable(path);
    FAIL() << "future-version quantized table must not load";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(TableIoQuantized, RejectsTruncatedFileWithByteOffset) {
  const auto table = makeTable();
  const auto path = tempPath("truncated.uniqq");
  saveHrtfTableQuantized(path, table);
  std::string contents;
  {
    std::ifstream is(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(contents.data(), 1024);
  }
  try {
    loadHrtfTable(path);
    FAIL() << "truncated quantized table must not load";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << "message should locate the truncation: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(TableIoQuantized, RejectsCorruptScaleWithByteOffset) {
  const auto table = makeTable();
  const auto path = tempPath("corrupt_scale.uniqq");
  saveHrtfTableQuantized(path, table);
  std::string contents;
  {
    std::ifstream is(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(is),
                    std::istreambuf_iterator<char>());
  }
  // Layout: magic(8) + version(4) + five f64 header fields (40), then the
  // near-field HRIR block: count(4) + length(4) + the first degree's f32
  // scale. Stomping that scale to all-ones makes it NaN, which the loader
  // must refuse with the exact byte offset.
  const std::size_t scaleOffset = 8 + 4 + 40 + 4 + 4;
  ASSERT_GT(contents.size(), scaleOffset + 4);
  for (std::size_t i = 0; i < 4; ++i) contents[scaleOffset + i] = '\xFF';
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }
  try {
    loadHrtfTable(path);
    FAIL() << "quantized table with NaN scale must not load";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << "message should locate the corruption: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(TableIoQuantized, RejectsTrailingGarbage) {
  const auto table = makeTable();
  const auto path = tempPath("trailing.uniqq");
  saveHrtfTableQuantized(path, table);
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os << "extra bytes that should not be here";
  }
  EXPECT_THROW(loadHrtfTable(path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(TableIoQuantized, FailedSaveLeavesPreviousFileIntact) {
  // A near-field tap outside Q8.8 fails the save after the near-field
  // HRIRs are written; the previous file must survive whole.
  const auto dir = tempPath("failed_save_q");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path = dir + "/user.uniqq";
  const auto table = makeTable();
  saveHrtfTableQuantized(path, table);
  const auto size = std::filesystem::file_size(path);

  auto nearTable = table.nearTable();
  nearTable.tapLeftSamples[0] = 200.0;
  const HrtfTable outOfRange(std::move(nearTable), table.farTable());
  EXPECT_THROW(saveHrtfTableQuantized(path, outOfRange), InvalidArgument);

  EXPECT_EQ(std::filesystem::file_size(path), size);
  std::string error;
  const auto loaded = tryLoadHrtfTable(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->nearTable().tapLeftSamples[0],
            table.nearTable().tapLeftSamples[0]);
  EXPECT_EQ(entriesIn(dir), 1u);
  std::filesystem::remove_all(dir);
}

TEST(TableIoQuantized, LoadedTableRendersCloseToOriginal) {
  const auto table = makeTable();
  const auto path = tempPath("render_q.uniqq");
  saveHrtfTableQuantized(path, table);
  const auto loaded = loadHrtfTable(path);
  const std::vector<double> click{1.0, -0.5, 0.25};
  const auto a = table.renderFar(72.0, click);
  const auto b = loaded.renderFar(72.0, click);
  ASSERT_EQ(a.left.size(), b.left.size());
  // Rendering convolves ~192 taps, each within the per-sample budget, so
  // the output error is bounded by sum(|x|) * peak * kQuantSampleError.
  const double budget =
      1.75 * degreePeak(table.farAt(72)) * kQuantSampleError *
      static_cast<double>(table.farAt(72).left.size());
  for (std::size_t i = 0; i < a.left.size(); ++i) {
    EXPECT_NEAR(a.left[i], b.left[i], budget);
    EXPECT_NEAR(a.right[i], b.right[i], budget);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uniq::core
