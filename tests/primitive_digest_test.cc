// Golden digests of the SAX-consuming primitives that no registered detector
// reaches: motif discovery, the standalone SAX word, HOTSAX discords and
// GI-Select's parameter choice. tests/data/primitive_digests.txt pins their
// exact outputs; any change to how these callers discretize shows up here as
// a byte difference. Run with EGI_UPDATE_GOLDEN=1 to regenerate the file.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/gi.h"
#include "datasets/planted.h"
#include "datasets/ucr_like.h"
#include "discord/hotsax.h"
#include "egi/motif.h"
#include "egi/primitives.h"
#include "util/env.h"
#include "util/rng.h"

namespace egi {
namespace {

std::string PrimitiveDigestPath() {
  return std::string(EGI_TEST_DATA_DIR) + "/primitive_digests.txt";
}

std::string Hex(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(std::bit_cast<uint64_t>(v)));
  return buf;
}

// FNV-1a over a string, for lines that would otherwise run to kilobytes.
uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string HashHex(uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<double> NoisySine(size_t len, double period, double offset,
                              Rng& rng) {
  std::vector<double> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = offset +
           std::sin(2.0 * M_PI * static_cast<double>(i) / period) +
           0.2 * rng.Gaussian();
  }
  return v;
}

std::string MotifDigest() {
  std::string out;
  Rng rng(21);
  for (const auto family : {datasets::UcrDataset::kTwoLeadEcg,
                            datasets::UcrDataset::kGunPoint,
                            datasets::UcrDataset::kTrace}) {
    const auto planted = datasets::MakePlantedSeries(family, rng, 12);
    const size_t window = datasets::GetDatasetSpec(family).instance_length;
    for (const auto [w, a] : {std::pair{4, 4}, std::pair{6, 5}}) {
      MotifOptions opts;
      opts.window_length = window;
      opts.paa_size = w;
      opts.alphabet_size = a;
      opts.top_k = 4;
      auto motifs = DiscoverMotifs(planted.values, opts);
      EXPECT_TRUE(motifs.ok()) << motifs.status();
      if (!motifs.ok()) continue;
      for (size_t i = 0; i < motifs->size(); ++i) {
        const Motif& m = (*motifs)[i];
        std::string instances;
        for (const Range& r : m.instances) {
          instances += std::to_string(r.start) + "+" +
                       std::to_string(r.length) + ",";
        }
        out += "motif " + std::string(datasets::GetDatasetSpec(family).name) +
               " w=" + std::to_string(w) + " a=" + std::to_string(a) +
               " #" + std::to_string(i) + " rule=" +
               std::to_string(m.rule_index) +
               " span=" + std::to_string(m.token_span) +
               " count=" + std::to_string(m.instances.size()) +
               " coverage=" + Hex(m.coverage) +
               " instances=" + HashHex(Fnv1a(instances)) +
               " words=" + HashHex(Fnv1a(m.words)) + "\n";
      }
    }
  }
  return out;
}

// SaxWord at a strided set of window positions of sine, planted and offset
// series; one line per (series, w, a) with the window count and a hash of
// the concatenated words.
std::string SaxWordDigest() {
  std::string out;
  Rng rng(33);
  struct Case {
    std::string name;
    std::vector<double> values;
    size_t window;
  };
  std::vector<Case> cases;
  cases.push_back({"sine", NoisySine(1200, 37.0, 0.0, rng), 40});
  cases.push_back({"sine+1e3", NoisySine(1200, 37.0, 1e3, rng), 40});
  cases.push_back({"sine+2e3", NoisySine(1200, 53.0, 2e3, rng), 24});
  cases.push_back(
      {"wafer",
       datasets::MakePlantedSeries(datasets::UcrDataset::kWafer, rng, 6).values,
       150});
  std::vector<double> steps(600);
  for (size_t i = 0; i < steps.size(); ++i) {
    steps[i] = static_cast<double>((i / 25) % 3);  // includes flat windows
  }
  cases.push_back({"steps", steps, 20});

  for (const Case& c : cases) {
    for (const auto [w, a] :
         {std::pair{4, 3}, std::pair{4, 10}, std::pair{7, 5}}) {
      std::string words;
      size_t count = 0;
      for (size_t p = 0; p + c.window <= c.values.size(); p += 3) {
        auto word = SaxWord(
            std::span<const double>(c.values).subspan(p, c.window), w, a);
        EXPECT_TRUE(word.ok()) << word.status();
        if (!word.ok()) continue;
        words += *word + " ";
        ++count;
      }
      out += "saxword " + c.name + " n=" + std::to_string(c.window) +
             " w=" + std::to_string(w) + " a=" + std::to_string(a) +
             " windows=" + std::to_string(count) +
             " words=" + HashHex(Fnv1a(words)) + "\n";
    }
  }
  return out;
}

std::string HotSaxDigest() {
  std::string out;
  Rng rng(45);
  for (const auto family : {datasets::UcrDataset::kTwoLeadEcg,
                            datasets::UcrDataset::kGunPoint,
                            datasets::UcrDataset::kWafer}) {
    const auto planted = datasets::MakePlantedSeries(family, rng, 8);
    const size_t window = datasets::GetDatasetSpec(family).instance_length;
    auto discords = discord::FindDiscordsHotSax(planted.values, window, 3);
    EXPECT_TRUE(discords.ok()) << discords.status();
    if (!discords.ok()) continue;
    out += "hotsax " + std::string(datasets::GetDatasetSpec(family).name);
    for (const auto& d : *discords) {
      out += " " + std::to_string(d.position) + "/" + Hex(d.distance);
    }
    out += "\n";
  }
  return out;
}

std::string SelectDigest() {
  std::string out;
  Rng rng(57);
  for (const auto family : datasets::kAllDatasets) {
    const auto planted = datasets::MakePlantedSeries(family, rng, 12);
    const size_t window = datasets::GetDatasetSpec(family).instance_length;
    for (const double train : {0.1, 0.3}) {
      auto chosen = core::SelectGiParams(planted.values, window, 10, 10, train);
      EXPECT_TRUE(chosen.ok()) << chosen.status();
      if (!chosen.ok()) continue;
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.1f", train);
      out += "select " + std::string(datasets::GetDatasetSpec(family).name) +
             " train=" + buf + " w=" + std::to_string(chosen->paa_size) +
             " a=" + std::to_string(chosen->alphabet_size) + "\n";
    }
  }
  return out;
}

TEST(PrimitiveDigestTest, MatchesRecordedOutputs) {
  const std::string digest =
      MotifDigest() + SaxWordDigest() + HotSaxDigest() + SelectDigest();

  if (GetEnvBool("EGI_UPDATE_GOLDEN", false)) {
    std::ofstream out(PrimitiveDigestPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << PrimitiveDigestPath();
    out << digest;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "primitive digests regenerated at "
                 << PrimitiveDigestPath();
  }
  std::ifstream in(PrimitiveDigestPath());
  ASSERT_TRUE(in.good()) << "missing " << PrimitiveDigestPath()
                         << " (run with EGI_UPDATE_GOLDEN=1 to create it)";
  const std::string expected((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(digest, expected);
}

}  // namespace
}  // namespace egi
