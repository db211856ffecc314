#include "core/table_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace uniq::core {

namespace {

constexpr char kMagic[8] = {'U', 'N', 'I', 'Q', 'H', 'R', 'T', 'F'};
constexpr std::uint32_t kVersion = 1;

// Compact container: int16 samples against one float32 scale per degree,
// Q8.8 int16 tap anchors. See table_io.h for the layout contract.
constexpr char kMagicQuant[8] = {'U', 'N', 'I', 'Q', 'H', 'R', 'T', 'Q'};
constexpr std::uint32_t kQuantVersion = 1;
constexpr double kTapFixedScale = 256.0;  // Q8.8
constexpr std::int32_t kQuantMax = 32767;

void writeBytes(std::ostream& os, const void* data, std::size_t n) {
  os.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

template <typename T>
void writePod(std::ostream& os, const T& v) {
  writeBytes(os, &v, sizeof(T));
}

/// Magic, version, head parameters, median radius and sample rate — the
/// header both containers share.
void writeHeader(std::ostream& os, const char (&magic)[8],
                 std::uint32_t version, const NearFieldTable& nearTable) {
  writeBytes(os, magic, sizeof(magic));
  writePod(os, version);
  writePod(os, nearTable.headParams.a);
  writePod(os, nearTable.headParams.b);
  writePod(os, nearTable.headParams.c);
  writePod(os, nearTable.medianRadiusM);
  writePod(os, nearTable.sampleRate);
}

void writeVector(std::ostream& os, const std::vector<double>& v) {
  writePod<std::uint64_t>(os, v.size());
  writeBytes(os, v.data(), v.size() * sizeof(double));
}

void writeHrirs(std::ostream& os, const std::vector<head::Hrir>& hrirs) {
  writePod<std::uint64_t>(os, hrirs.size());
  for (const auto& hrir : hrirs) {
    writePod(os, hrir.sampleRate);
    writeVector(os, hrir.left);
    writeVector(os, hrir.right);
  }
}

// --- Quantized writer ----------------------------------------------------

std::int16_t quantizeSample(double x, double scale) {
  if (scale <= 0.0) return 0;
  const auto q = static_cast<std::int32_t>(std::lround(x / scale));
  return static_cast<std::int16_t>(std::clamp(q, -kQuantMax, kQuantMax));
}

void writeQuantizedTaps(std::ostream& os, const std::vector<double>& taps,
                        const char* what) {
  for (const double t : taps) {
    UNIQ_REQUIRE(std::isfinite(t) && std::fabs(t) < 127.9,
                 std::string(what) +
                     " outside the Q8.8 range of the quantized format");
    writePod<std::int16_t>(
        os, static_cast<std::int16_t>(std::lround(t * kTapFixedScale)));
  }
}

void writeQuantizedHrirs(std::ostream& os,
                         const std::vector<head::Hrir>& hrirs,
                         double tableRate, const char* what) {
  UNIQ_REQUIRE(!hrirs.empty(), std::string(what) + " is empty");
  const std::size_t len = hrirs.front().left.size();
  UNIQ_REQUIRE(len >= 1 && len <= (1u << 16),
               std::string(what) + " HRIR length outside sane bounds");
  writePod<std::uint32_t>(os, static_cast<std::uint32_t>(hrirs.size()));
  writePod<std::uint32_t>(os, static_cast<std::uint32_t>(len));
  std::vector<std::int16_t> row(2 * len);
  for (const auto& hrir : hrirs) {
    UNIQ_REQUIRE(hrir.left.size() == len && hrir.right.size() == len,
                 std::string(what) +
                     " must have uniform HRIR lengths for quantization");
    UNIQ_REQUIRE(hrir.sampleRate == tableRate,
                 std::string(what) + " per-entry sample rate disagrees with "
                                     "the table rate");
    double peak = 0.0;
    for (const double x : hrir.left) peak = std::max(peak, std::fabs(x));
    for (const double x : hrir.right) peak = std::max(peak, std::fabs(x));
    UNIQ_REQUIRE(std::isfinite(peak), std::string(what) +
                                          " contains non-finite samples");
    // Quantize against the float32-rounded scale the reader will use, not
    // the double it was derived from — otherwise encoder and decoder grids
    // differ by the f32 rounding and the half-step error bound breaks.
    const auto scaleF =
        static_cast<float>(peak / static_cast<double>(kQuantMax));
    writePod<float>(os, scaleF);
    const auto scale = static_cast<double>(scaleF);
    for (std::size_t i = 0; i < len; ++i)
      row[i] = quantizeSample(hrir.left[i], scale);
    for (std::size_t i = 0; i < len; ++i)
      row[len + i] = quantizeSample(hrir.right[i], scale);
    writeBytes(os, row.data(), row.size() * sizeof(std::int16_t));
  }
}

// --- Atomic replace -------------------------------------------------------

/// Runs `body` against a temp file next to `path` (unique per writer:
/// process id plus a process-wide sequence number), then renames it over
/// `path`. A reader, a concurrent mmap included, sees the old file or the
/// new one, never a torn one; a throw anywhere leaves `path` as it was and
/// removes the temp file.
template <typename Body>
void saveAtomically(const std::string& path, Body&& body) {
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(sequence.fetch_add(1));
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    UNIQ_REQUIRE(os.good(), "cannot open output file: " + path);
    body(os);
    os.close();
    UNIQ_CHECK(!os.fail(), "write failed: " + path);
    UNIQ_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
               "cannot replace " + path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

// --- Reader (over a whole-file memory view) ------------------------------

/// Bounds-checked, byte-offset-tracking reader: every validation failure
/// says WHERE the file went bad, so a truncated download is distinguishable
/// from a flipped bit in the middle ("at byte 524371" vs "at byte 16").
class Reader {
 public:
  Reader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return size_ - offset_; }

  [[noreturn]] void fail(const std::string& what, std::size_t at) const {
    throw InvalidArgument("corrupt HRTF table: " + what + " at byte offset " +
                          std::to_string(at));
  }

  /// Borrow `n` bytes in place (no copy: payloads are decoded straight out
  /// of the mapped page cache).
  const unsigned char* view(std::size_t n, const char* what) {
    if (n > remaining())
      fail(std::string("unexpected end of file in ") + what, offset_);
    const unsigned char* p = data_ + offset_;
    offset_ += n;
    return p;
  }

  template <typename T>
  T pod(const char* what) {
    T v{};
    std::memcpy(&v, view(sizeof(T), what), sizeof(T));
    return v;
  }

  /// Length-prefixed vector of doubles; rejects absurd lengths and any
  /// non-finite payload (NaN/inf samples render as silence at best and
  /// full-scale noise at worst — never let them into a playback path).
  std::vector<double> vec(std::size_t maxLen, const char* what) {
    const std::size_t at = offset_;
    const auto n = pod<std::uint64_t>(what);
    if (n > maxLen)
      fail(std::string(what) + " length " + std::to_string(n) +
               " exceeds sane bounds",
           at);
    std::vector<double> v(static_cast<std::size_t>(n));
    if (n > 0)
      std::memcpy(v.data(), view(v.size() * sizeof(double), what),
                  v.size() * sizeof(double));
    for (double x : v)
      if (!std::isfinite(x))
        fail(std::string("non-finite sample in ") + what, at);
    return v;
  }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

// --- Float64 body --------------------------------------------------------

std::vector<head::Hrir> readHrirs(Reader& r, const char* what,
                                  double expectedSampleRate) {
  const std::size_t at = r.offset();
  const auto count = r.pod<std::uint64_t>(what);
  if (count != 181)
    r.fail(std::string(what) + " must contain 181 per-degree entries, found " +
               std::to_string(count),
           at);
  std::vector<head::Hrir> hrirs(count);
  for (auto& hrir : hrirs) {
    const std::size_t entryAt = r.offset();
    hrir.sampleRate = r.pod<double>(what);
    if (hrir.sampleRate != expectedSampleRate)
      r.fail(std::string("per-entry sample rate disagrees with header in ") +
                 what,
             entryAt);
    hrir.left = r.vec(1 << 20, what);
    hrir.right = r.vec(1 << 20, what);
  }
  return hrirs;
}

std::vector<double> readTaps(Reader& r, const char* what) {
  const std::size_t at = r.offset();
  auto taps = r.vec(1024, what);
  if (taps.size() != 181)
    r.fail(std::string(what) + " must have 181 entries, found " +
               std::to_string(taps.size()),
           at);
  return taps;
}

// --- Quantized body ------------------------------------------------------

std::vector<head::Hrir> readQuantizedHrirs(Reader& r, const char* what,
                                           double sampleRate) {
  const std::size_t at = r.offset();
  const auto count = r.pod<std::uint32_t>(what);
  if (count != 181)
    r.fail(std::string(what) + " must contain 181 per-degree entries, found " +
               std::to_string(count),
           at);
  const std::size_t lenAt = r.offset();
  const auto len = r.pod<std::uint32_t>(what);
  if (len == 0 || len > (1u << 16))
    r.fail(std::string(what) + " HRIR length " + std::to_string(len) +
               " exceeds sane bounds",
           lenAt);
  std::vector<head::Hrir> hrirs(count);
  for (auto& hrir : hrirs) {
    const std::size_t entryAt = r.offset();
    const double scale = r.pod<float>(what);
    if (!std::isfinite(scale) || scale < 0.0 || scale > 1e6)
      r.fail(std::string("implausible quantization scale in ") + what,
             entryAt);
    const auto* q = reinterpret_cast<const std::int16_t*>(
        r.view(2 * static_cast<std::size_t>(len) * sizeof(std::int16_t),
               what));
    hrir.sampleRate = sampleRate;
    hrir.left.resize(len);
    hrir.right.resize(len);
    // int16 payloads cannot encode NaN/inf, and scale is already vetted, so
    // unlike the float64 reader there is no per-sample finiteness scan.
    for (std::size_t i = 0; i < len; ++i) {
      std::int16_t s;
      std::memcpy(&s, q + i, sizeof(s));
      hrir.left[i] = static_cast<double>(s) * scale;
      std::memcpy(&s, q + len + i, sizeof(s));
      hrir.right[i] = static_cast<double>(s) * scale;
    }
  }
  return hrirs;
}

std::vector<double> readQuantizedTaps(Reader& r, const char* what) {
  std::vector<double> taps(181);
  const auto* q = reinterpret_cast<const std::int16_t*>(
      r.view(taps.size() * sizeof(std::int16_t), what));
  for (std::size_t i = 0; i < taps.size(); ++i) {
    std::int16_t s;
    std::memcpy(&s, q + i, sizeof(s));
    taps[i] = static_cast<double>(s) / kTapFixedScale;
  }
  return taps;
}

// --- Whole-file view and decode ------------------------------------------

/// Read-only mapped view of a whole file: the decoders parse its bytes in
/// place from the page cache, with no intermediate read buffer. mmap cannot
/// map zero bytes, so an empty file is an empty view, which then fails to
/// decode like any other truncated table.
class FileView {
 public:
  explicit FileView(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    UNIQ_REQUIRE(fd >= 0, "cannot open input file: " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
      ::close(fd);
      throw InvalidArgument("not a regular file: " + path);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* base = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);  // the mapping keeps the pages alive
      UNIQ_REQUIRE(base != MAP_FAILED, "cannot map input file: " + path);
      data_ = static_cast<const unsigned char*>(base);
    } else {
      ::close(fd);
    }
  }
  FileView(const FileView&) = delete;
  FileView& operator=(const FileView&) = delete;
  ~FileView() {
    if (data_ != nullptr)
      ::munmap(const_cast<unsigned char*>(data_), size_);
  }

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

std::optional<TableFormat> formatOfMagic(const unsigned char* magic) {
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) == 0)
    return TableFormat::kFloat64;
  if (std::memcmp(magic, kMagicQuant, sizeof(kMagicQuant)) == 0)
    return TableFormat::kQuantized;
  return std::nullopt;
}

obs::Counter& loadCounter(TableFormat format) {
  static obs::Counter& f64 =
      obs::registry().counter("table_io.load.float64");
  static obs::Counter& quant =
      obs::registry().counter("table_io.load.quantized");
  return format == TableFormat::kQuantized ? quant : f64;
}

/// Decode a whole container: the shared header once, then the body through
/// the decoders the magic selects, then the end-of-table check.
HrtfTable decodeTable(Reader& r, const std::string& path) {
  const auto format = formatOfMagic(r.view(sizeof(kMagic), "magic"));
  if (!format) throw InvalidArgument("not a UNIQ HRTF table file: " + path);
  const bool quantized = *format == TableFormat::kQuantized;
  const auto version = r.pod<std::uint32_t>("version");
  if (version != (quantized ? kQuantVersion : kVersion))
    throw InvalidArgument(std::string("unsupported ") +
                          tableFormatName(*format) + " table version " +
                          std::to_string(version) + " in " + path);

  NearFieldTable nearTable;
  const std::size_t headAt = r.offset();
  nearTable.headParams.a = r.pod<double>("head parameter a");
  nearTable.headParams.b = r.pod<double>("head parameter b");
  nearTable.headParams.c = r.pod<double>("head parameter c");
  if (!std::isfinite(nearTable.headParams.a) ||
      !std::isfinite(nearTable.headParams.b) ||
      !std::isfinite(nearTable.headParams.c) ||
      !nearTable.headParams.isPlausible())
    r.fail("head parameters outside anthropometric bounds", headAt);

  const std::size_t radiusAt = r.offset();
  nearTable.medianRadiusM = r.pod<double>("median radius");
  if (!std::isfinite(nearTable.medianRadiusM) ||
      nearTable.medianRadiusM <= 0.0 || nearTable.medianRadiusM > 10.0)
    r.fail("implausible median radius", radiusAt);

  const std::size_t rateAt = r.offset();
  nearTable.sampleRate = r.pod<double>("sample rate");
  if (!std::isfinite(nearTable.sampleRate) ||
      nearTable.sampleRate <= 8000.0 || nearTable.sampleRate > 1e6)
    r.fail("implausible sample rate", rateAt);

  const auto hrirsOf = quantized ? readQuantizedHrirs : readHrirs;
  const auto tapsOf = quantized ? readQuantizedTaps : readTaps;
  nearTable.byDegree = hrirsOf(r, "near-field HRIRs", nearTable.sampleRate);
  nearTable.tapLeftSamples = tapsOf(r, "near-field left taps");
  nearTable.tapRightSamples = tapsOf(r, "near-field right taps");

  FarFieldTable farTable;
  farTable.headParams = nearTable.headParams;
  farTable.sampleRate = nearTable.sampleRate;
  farTable.byDegree = hrirsOf(r, "far-field HRIRs", nearTable.sampleRate);
  farTable.tapLeftSamples = tapsOf(r, "far-field left taps");
  farTable.tapRightSamples = tapsOf(r, "far-field right taps");

  if (r.remaining() != 0)
    r.fail(std::to_string(r.remaining()) + " trailing bytes after the table",
           r.offset());
  loadCounter(*format).inc();
  return HrtfTable(std::move(nearTable), std::move(farTable));
}

}  // namespace

const char* tableFormatName(TableFormat format) {
  switch (format) {
    case TableFormat::kFloat64:
      return "float64";
    case TableFormat::kQuantized:
      return "quantized";
  }
  return "unknown";
}

void saveHrtfTable(const std::string& path, const HrtfTable& table) {
  saveAtomically(path, [&table](std::ostream& os) {
    const auto& nearTable = table.nearTable();
    const auto& farTable = table.farTable();
    writeHeader(os, kMagic, kVersion, nearTable);
    writeHrirs(os, nearTable.byDegree);
    writeVector(os, nearTable.tapLeftSamples);
    writeVector(os, nearTable.tapRightSamples);
    writeHrirs(os, farTable.byDegree);
    writeVector(os, farTable.tapLeftSamples);
    writeVector(os, farTable.tapRightSamples);
  });
}

void saveHrtfTableQuantized(const std::string& path, const HrtfTable& table) {
  saveAtomically(path, [&table](std::ostream& os) {
    const auto& nearTable = table.nearTable();
    const auto& farTable = table.farTable();
    writeHeader(os, kMagicQuant, kQuantVersion, nearTable);
    writeQuantizedHrirs(os, nearTable.byDegree, nearTable.sampleRate,
                        "near-field HRIRs");
    writeQuantizedTaps(os, nearTable.tapLeftSamples, "near-field left taps");
    writeQuantizedTaps(os, nearTable.tapRightSamples,
                       "near-field right taps");
    writeQuantizedHrirs(os, farTable.byDegree, nearTable.sampleRate,
                        "far-field HRIRs");
    writeQuantizedTaps(os, farTable.tapLeftSamples, "far-field left taps");
    writeQuantizedTaps(os, farTable.tapRightSamples, "far-field right taps");
  });
}

HrtfTable loadHrtfTable(const std::string& path) {
  const FileView view(path);
  Reader r(view.data(), view.size());
  return decodeTable(r, path);
}

std::optional<HrtfTable> tryLoadHrtfTable(const std::string& path,
                                          std::string* error) {
  try {
    return loadHrtfTable(path);
  } catch (const Error& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

std::optional<TableFormat> probeTableFormat(const std::string& path,
                                            std::string* error) {
  try {
    const FileView view(path);
    if (view.size() < sizeof(kMagic)) {
      if (error) *error = "file shorter than the 8-byte magic: " + path;
      return std::nullopt;
    }
    if (const auto format = formatOfMagic(view.data())) return format;
    if (error) *error = "not a UNIQ HRTF table file: " + path;
  } catch (const Error& e) {
    if (error) *error = e.what();
  }
  return std::nullopt;
}

}  // namespace uniq::core
