#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/gi.h"
#include "core/motif.h"
#include "discord/hotsax.h"
#include "discord/matrix_profile.h"
#include "egi/primitives.h"
#include "egi/session.h"
#include "sax/multires_encoder.h"
#include "ts/prefix_stats.h"
#include "ts/stats.h"
#include "util/rng.h"

namespace egi {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> SeriesWith(double bad_value) {
  Rng rng(3);
  std::vector<double> v(300);
  for (auto& x : v) x = rng.Gaussian();
  v[150] = bad_value;
  return v;
}

Result<std::vector<Detection>> DetectWith(std::string_view spec,
                                          std::span<const double> series,
                                          size_t window, size_t k) {
  EGI_ASSIGN_OR_RETURN(auto session, Session::Open(spec));
  return session.Detect(series, window, k);
}

// ----------------------------------------------- non-finite input rejection

TEST(NonFiniteInputTest, AllFiniteDetectsNanAndInf) {
  EXPECT_TRUE(ts::AllFinite(std::vector<double>{1.0, -2.0, 0.0}));
  EXPECT_FALSE(ts::AllFinite(std::vector<double>{1.0, kNan}));
  EXPECT_FALSE(ts::AllFinite(std::vector<double>{kInf, 1.0}));
  EXPECT_FALSE(ts::AllFinite(std::vector<double>{-kInf}));
  EXPECT_TRUE(ts::AllFinite(std::vector<double>{}));
}

TEST(NonFiniteInputTest, DiscretizeRejects) {
  core::GiParams p;
  p.window_length = 20;
  for (double bad : {kNan, kInf, -kInf}) {
    const auto series = SeriesWith(bad);
    auto encoded = sax::MultiResSaxEncoder(series, 20, 4).Encode(4, 4);
    EXPECT_FALSE(encoded.ok());
    EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
    auto run = core::RunGrammarInduction(series, p);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(NonFiniteInputTest, SaxWordRejects) {
  for (double bad : {kNan, kInf, -kInf}) {
    const std::vector<double> values{1, 2, bad, 4, 5, 6, 7, 8};
    auto word = SaxWord(values, 4, 4);
    EXPECT_FALSE(word.ok()) << bad;
    EXPECT_EQ(word.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(NonFiniteInputTest, AllDetectorsReject) {
  const auto bad = SeriesWith(kNan);
  for (const auto& info : ListDetectors()) {
    EXPECT_FALSE(DetectWith(info.name, bad, 20, 3).ok()) << info.name;
  }
}

TEST(NonFiniteInputTest, MatrixProfileAndHotSaxReject) {
  const auto bad = SeriesWith(kInf);
  EXPECT_FALSE(discord::ComputeMatrixProfileBrute(bad, 10).ok());
  EXPECT_FALSE(discord::ComputeMatrixProfileStomp(bad, 10).ok());
  EXPECT_FALSE(discord::FindDiscordsHotSax(bad, 10, 1).ok());
}

TEST(NonFiniteInputTest, MotifsReject) {
  core::MotifParams p;
  p.gi.window_length = 20;
  EXPECT_FALSE(core::DiscoverMotifs(SeriesWith(kNan), p).ok());
}

// ------------------------------------------------------ degenerate series

TEST(DegenerateSeriesTest, ConstantSeriesDetectorsStillReturn) {
  std::vector<double> flat(500, 3.0);
  auto r = DetectWith("ensemble", flat, 50, 3);
  ASSERT_TRUE(r.ok()) << r.status();
  // A constant series has no structure: one token, no rules, zero density
  // everywhere -> candidates exist but are arbitrary and harmless.
  EXPECT_FALSE(r->empty());
}

TEST(DegenerateSeriesTest, ConstantSeriesDiscordIsZeroDistance) {
  std::vector<double> flat(200, -1.5);
  auto r = DetectWith("discord", flat, 20, 2);
  ASSERT_TRUE(r.ok());
  for (const auto& c : *r) EXPECT_DOUBLE_EQ(c.severity, 0.0);
}

TEST(DegenerateSeriesTest, WindowEqualsSeriesLength) {
  Rng rng(5);
  std::vector<double> v(64);
  for (auto& x : v) x = rng.Gaussian();
  auto r = DetectWith("gi-fix", v, 64, 3);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  EXPECT_EQ((*r)[0].position, 0u);
}

TEST(DegenerateSeriesTest, TinySeriesSmallestValidWindow) {
  std::vector<double> v{1.0, 5.0, 2.0, 8.0};
  auto r = DetectWith("gi-fix:w=2,a=2", v, 2, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->empty());
}

// --------------------------------------------------- numerical robustness

TEST(NumericalRobustnessTest, HugeOffsetDoesNotBreakZNormalization) {
  // A signal riding on a 1e9 offset: compensated prefix sums must keep the
  // range standard deviation accurate enough for discretization.
  Rng rng(7);
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 1e9 + std::sin(static_cast<double>(i) / 8.0) + 0.01 * rng.Gaussian();
  }
  ts::PrefixStats stats(v);
  std::vector<double> window(v.begin() + 100, v.begin() + 200);
  EXPECT_NEAR(stats.RangeStdDev(100, 100), ts::SampleStdDev(window), 1e-4);

  auto d = sax::MultiResSaxEncoder(v, 50, 4).Encode(4, 4);
  ASSERT_TRUE(d.ok());
  // Periodic signal: the vocabulary stays small despite the offset.
  EXPECT_LT(d->table.size(), d->seq.size());
}

TEST(NumericalRobustnessTest, TinyAmplitudeBelowThresholdIsFlat) {
  std::vector<double> v(300);
  for (size_t i = 0; i < v.size(); ++i)
    v[i] = 1e-6 * std::sin(static_cast<double>(i) / 5.0);
  auto d = sax::MultiResSaxEncoder(v, 30, 4).Encode(4, 4);
  ASSERT_TRUE(d.ok());
  // Amplitude below the normalization threshold: every window is flat, one
  // token survives numerosity reduction.
  EXPECT_EQ(d->seq.size(), 1u);
}

TEST(NumericalRobustnessTest, LargeDynamicRangeSeries) {
  Rng rng(11);
  std::vector<double> v(400);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = (i < 200 ? 1e-3 : 1e6) * (1.0 + 0.1 * rng.Gaussian());
  }
  auto r = DetectWith("ensemble", v, 40, 3);
  ASSERT_TRUE(r.ok()) << r.status();
  for (const auto& c : *r) EXPECT_TRUE(std::isfinite(c.severity));
}

TEST(NumericalRobustnessTest, MatrixProfileWithHugeOffset) {
  Rng rng(13);
  std::vector<double> v(300);
  for (size_t i = 0; i < v.size(); ++i)
    v[i] = 1e8 + std::sin(static_cast<double>(i) / 4.0) + 0.01 * rng.Gaussian();
  auto brute = discord::ComputeMatrixProfileBrute(v, 16);
  auto stomp = discord::ComputeMatrixProfileStomp(v, 16);
  ASSERT_TRUE(brute.ok() && stomp.ok());
  for (size_t i = 0; i < brute->size(); ++i) {
    if (std::isinf(brute->distances[i])) continue;
    // The dot-product formulation loses precision at 1e8 offsets; both
    // implementations share it, so they must still agree with each other.
    EXPECT_NEAR(brute->distances[i], stomp->distances[i],
                1e-3 + 0.05 * brute->distances[i])
        << i;
  }
}

}  // namespace
}  // namespace egi
