#include "sax/multires_encoder.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "sax/simd/kernels.h"
#include "sax/word_code.h"
#include "util/check.h"

namespace egi::sax {

namespace {

Status NonFiniteSeries() {
  return Status::InvalidArgument(
      "series contains non-finite values (NaN or Inf)");
}

Status ValidateSaxParams(size_t series_length, size_t window_length,
                         int paa_size, int alphabet_size,
                         double norm_threshold) {
  if (window_length < 2) {
    return Status::InvalidArgument("window length must be >= 2, got " +
                                   std::to_string(window_length));
  }
  if (window_length > series_length) {
    return Status::InvalidArgument(
        "window length " + std::to_string(window_length) +
        " exceeds series length " + std::to_string(series_length));
  }
  if (paa_size < 1 || static_cast<size_t>(paa_size) > window_length) {
    return Status::InvalidArgument("PAA size must be in [1, window], got " +
                                   std::to_string(paa_size));
  }
  if (alphabet_size < kMinAlphabetSize || alphabet_size > kMaxAlphabetSize) {
    return Status::InvalidArgument("alphabet size must be in [2, 64], got " +
                                   std::to_string(alphabet_size));
  }
  if (!WordCodec::Supported(paa_size, alphabet_size)) {
    return Status::InvalidArgument(
        "SAX word (w=" + std::to_string(paa_size) +
        ", a=" + std::to_string(alphabet_size) + ") needs " +
        std::to_string(paa_size * BitsPerSymbol(alphabet_size)) +
        " bits, exceeding the " + std::to_string(kWordCodeBits) +
        "-bit packed word code; reduce w or a");
  }
  if (norm_threshold < 0.0) {
    return Status::InvalidArgument("normalization threshold must be >= 0");
  }
  return Status::OK();
}

}  // namespace

Status ValidateSeriesValues(std::span<const double> series) {
  return ts::AllFinite(series) ? Status::OK() : NonFiniteSeries();
}

MultiResSaxEncoder::MultiResSaxEncoder(std::span<const double> series,
                                       size_t window_length, int amax,
                                       double norm_threshold,
                                       bool numerosity_reduction)
    : window_length_(window_length),
      norm_threshold_(norm_threshold),
      numerosity_reduction_(numerosity_reduction),
      finite_(ts::AllFinite(series)),
      stats_(series),
      summary_(std::clamp(amax, kMinAlphabetSize, kMaxAlphabetSize)) {}

Result<DiscretizedSeries> MultiResSaxEncoder::Encode(int paa_size,
                                                     int alphabet_size) const {
  const WaParam p{paa_size, alphabet_size};
  EGI_ASSIGN_OR_RETURN(auto all, EncodeAll(std::span<const WaParam>(&p, 1)));
  return std::move(all[0]);
}

Result<std::vector<DiscretizedSeries>> MultiResSaxEncoder::EncodeAll(
    std::span<const WaParam> params) const {
  // Validate the series and every request up front.
  if (!finite_) return NonFiniteSeries();
  for (const auto& p : params) {
    EGI_RETURN_IF_ERROR(ValidateSaxParams(stats_.size(), window_length_,
                                          p.paa_size, p.alphabet_size,
                                          norm_threshold_));
    if (p.alphabet_size > summary_.amax()) {
      return Status::InvalidArgument(
          "alphabet size " + std::to_string(p.alphabet_size) +
          " exceeds encoder amax " + std::to_string(summary_.amax()));
    }
  }

  std::vector<DiscretizedSeries> results(params.size());
  std::vector<WordCodec> codecs(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    results[i].series_length = stats_.size();
    results[i].window_length = window_length_;
    results[i].paa_size = params[i].paa_size;
    results[i].alphabet_size = params[i].alphabet_size;
    codecs[i] = WordCodec(params[i].paa_size, params[i].alphabet_size);
    results[i].table = TokenTable(codecs[i]);
  }

  // Group requests by w so PAA is computed once per distinct w: a flat
  // index vector stably sorted by w, walked one equal-w run at a time.
  std::vector<size_t> order(params.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return params[a].paa_size < params[b].paa_size;
  });

  const FastPaa fast_paa(&stats_, norm_threshold_);
  const size_t positions = stats_.size() - window_length_ + 1;
  const std::span<const double> merged = summary_.merged_breakpoints();

  // Positions are processed in blocks so the PAA and breakpoint-resolution
  // kernels (sax/simd/, runtime-dispatched AVX2 with a scalar fallback) get
  // full vector lanes: one paa_block call fills a block * w coefficient
  // matrix, one intervals call resolves every coefficient in it against the
  // merged breakpoint axis. Block size trades kernel-call overhead against
  // scratch footprint; 128 rows keep the buffers comfortably in L1/L2.
  constexpr size_t kBlockPositions = 128;

  std::vector<double> coeffs;
  std::vector<uint32_t> intervals;
  std::vector<WordCode> last_codes(params.size());

  for (size_t g = 0; g < order.size();) {
    const int w = params[order[g]].paa_size;
    size_t g_end = g;
    while (g_end < order.size() && params[order[g_end]].paa_size == w) ++g_end;

    const auto uw = static_cast<size_t>(w);
    coeffs.resize(kBlockPositions * uw);
    intervals.resize(kBlockPositions * uw);

    for (size_t block = 0; block < positions; block += kBlockPositions) {
      const size_t block_count = std::min(kBlockPositions, positions - block);
      fast_paa.ComputeBlock(block, block_count, window_length_, w,
                            std::span<double>(coeffs.data(), block_count * uw));
      simd::ActiveKernels().intervals(coeffs.data(), block_count * uw,
                                      merged.data(), merged.size(),
                                      intervals.data());

      for (size_t b = 0; b < block_count; ++b) {
        const size_t pos = block + b;
        const uint32_t* row = intervals.data() + b * uw;
        for (size_t k = g; k < g_end; ++k) {
          const size_t ri = order[k];
          const int a = params[ri].alphabet_size;
          const WordCodec& codec = codecs[ri];
          WordCode code;
          for (size_t i = 0; i < uw; ++i)
            codec.AppendSymbol(code, summary_.SymbolOfInterval(row[i], a));
          if (numerosity_reduction_ && !results[ri].seq.tokens.empty() &&
              code == last_codes[ri]) {
            continue;
          }
          results[ri].seq.tokens.push_back(results[ri].table.Intern(code));
          results[ri].seq.offsets.push_back(pos);
          last_codes[ri] = code;
        }
      }
    }
    g = g_end;
  }
  return results;
}

Result<std::string> SaxWordForSubsequence(std::span<const double> values,
                                          int paa_size, int alphabet_size,
                                          double norm_threshold) {
  const MultiResSaxEncoder encoder(values, values.size(), alphabet_size,
                                   norm_threshold,
                                   /*numerosity_reduction=*/false);
  EGI_ASSIGN_OR_RETURN(auto encoded, encoder.Encode(paa_size, alphabet_size));
  return encoded.table.Word(encoded.seq.tokens[0]);
}

}  // namespace egi::sax
