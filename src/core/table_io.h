#pragma once

#include <optional>
#include <string>

#include "core/hrtf_table.h"

namespace uniq::core {

/// Serialization of the exported HRTF lookup table (paper Section 4.4:
/// "the near and far-field HRTFs estimated by UNIQ can now be exported to
/// earphone applications as a lookup table"). Two little-endian binary
/// containers share one header (magic, version, head parameters, median
/// radius, sample rate) and one read path, and are told apart by their
/// magic:
///
///   UNIQHRTF (kFloat64)   — header, then per-degree near/far HRIR pairs
///                           and tap anchors as raw IEEE doubles. Version
///                           history: 1 — initial.
///   UNIQHRTQ (kQuantized) — same logical content, compact: HRIR samples
///                           are int16 against one float32 scale per
///                           degree (max-abs over both ears), taps are
///                           Q8.8 fixed-point int16. ~4x smaller, sized
///                           for population-scale storage (the serving
///                           layer's disk tier writes only this format; see
///                           docs/CAPACITY.md for the error budget and
///                           sizing model). Version history: 1 — initial.
enum class TableFormat {
  kFloat64,   ///< UNIQHRTF: raw double samples (bit-exact round trip)
  kQuantized  ///< UNIQHRTQ: int16 samples + per-degree scale
};

/// Stable lower-case name ("float64", "quantized").
const char* tableFormatName(TableFormat format);

/// Quantization error bounds of the kQuantized container, pinned by tests
/// and documented in docs/CAPACITY.md. For every degree, the absolute
/// round-trip error of any sample is at most kQuantSampleError times that
/// degree's peak |sample| (over both ears): half an int16 step (1/65534)
/// plus headroom for the float32 rounding of the stored scale; tap anchors
/// round-trip within kQuantTapErrorSamples samples.
inline constexpr double kQuantSampleError = (1.0 + 1e-6) / 65534.0;
inline constexpr double kQuantTapErrorSamples = 1.0 / 512.0;

/// Write the table to `path` in the kFloat64 container. Both savers write
/// a temp file in the same directory and rename it over `path`, so readers
/// never see a partial file and a failed save leaves the previous file
/// intact. Throws on I/O failure.
void saveHrtfTable(const std::string& path, const HrtfTable& table);

/// Write the table to `path` in the compact kQuantized container. Requires
/// uniform HRIR lengths per table (what the pipeline produces) and tap
/// anchors inside the Q8.8 range (|tap| < 128 samples). Throws on I/O
/// failure or a table outside those bounds.
void saveHrtfTableQuantized(const std::string& path, const HrtfTable& table);

/// Read a table previously written by saveHrtfTable or
/// saveHrtfTableQuantized. This is the only read path for both containers:
/// the file is opened once as a read-only mmap-ed view and parsed in place
/// from the page cache, with no intermediate read buffer; the magic selects
/// the body decoder. Validates the magic, version, row counts, sample-rate
/// consistency, anthropometric plausibility of the head parameters, that
/// every sample is finite (no NaN/inf ever reaches a playback path), and
/// that no bytes follow the table; throws InvalidArgument naming the byte
/// offset of anything malformed. Empty files fail as truncated at byte
/// offset 0; directories and other non-regular files are rejected.
HrtfTable loadHrtfTable(const std::string& path);

/// Non-throwing variant of loadHrtfTable for speculative reads (the serving
/// layer's table cache probes disk on every cold miss, and a missing or
/// corrupt file there is an expected outcome, not an error). Returns the
/// table on success; on failure returns nullopt and, when `error` is
/// non-null, stores the reason — same validation and messages as
/// loadHrtfTable.
std::optional<HrtfTable> tryLoadHrtfTable(const std::string& path,
                                          std::string* error = nullptr);

/// Container format of the file at `path`, judged by its magic. Returns
/// nullopt (with the reason in `error` when non-null) for unreadable files
/// and unknown magics.
std::optional<TableFormat> probeTableFormat(const std::string& path,
                                            std::string* error = nullptr);

}  // namespace uniq::core
