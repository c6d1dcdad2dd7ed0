// Implementation of the public toolkit headers (egi/datasets.h,
// egi/metrics.h, egi/motif.h, egi/primitives.h, egi/version.h): thin
// conversions from the public value types onto the internal layers.

#include <cstdint>
#include <utility>

#include "core/motif.h"
#include "datasets/physio.h"
#include "datasets/planted.h"
#include "datasets/power.h"
#include "egi/datasets.h"
#include "egi/metrics.h"
#include "egi/motif.h"
#include "egi/primitives.h"
#include "egi/version.h"
#include "eval/metrics.h"
#include "grammar/density.h"
#include "grammar/sequitur.h"
#include "sax/multires_encoder.h"
#include "sax/numerosity.h"
#include "util/check.h"
#include "util/rng.h"

namespace egi {

// -------------------------------------------------------------------- version

#define EGI_VERSION_STR_INNER(x) #x
#define EGI_VERSION_STR(x) EGI_VERSION_STR_INNER(x)

const char* Version() {
  return EGI_VERSION_STR(EGI_VERSION_MAJOR) "." EGI_VERSION_STR(
      EGI_VERSION_MINOR) "." EGI_VERSION_STR(EGI_VERSION_PATCH);
}

namespace data {

namespace {

datasets::UcrDataset ToDataset(Family family) {
  switch (family) {
    case Family::kTwoLeadEcg:
      return datasets::UcrDataset::kTwoLeadEcg;
    case Family::kEcgFiveDays:
      return datasets::UcrDataset::kEcgFiveDays;
    case Family::kGunPoint:
      return datasets::UcrDataset::kGunPoint;
    case Family::kWafer:
      return datasets::UcrDataset::kWafer;
    case Family::kTrace:
      return datasets::UcrDataset::kTrace;
    case Family::kStarLightCurve:
      return datasets::UcrDataset::kStarLightCurve;
  }
  EGI_CHECK(false) << "unknown family";
  return datasets::UcrDataset::kTwoLeadEcg;
}

Range ToRange(const ts::Window& w) { return Range{w.start, w.length}; }

}  // namespace

const FamilyInfo& GetFamilyInfo(Family family) {
  static const std::array<FamilyInfo, kAllFamilies.size()> infos = [] {
    std::array<FamilyInfo, kAllFamilies.size()> out{};
    for (const Family f : kAllFamilies) {
      const auto& spec = datasets::GetDatasetSpec(ToDataset(f));
      out[static_cast<size_t>(f)] =
          FamilyInfo{spec.name, spec.instance_length, spec.data_type};
    }
    return out;
  }();
  return infos[static_cast<size_t>(family)];
}

PlantedSeries MakePlanted(Family family, uint64_t seed, int num_normal) {
  Rng rng(seed);
  auto made = datasets::MakePlantedSeries(ToDataset(family), rng, num_normal);
  return PlantedSeries{std::move(made.values), ToRange(made.anomaly)};
}

LabeledSeries MakeMultiPlanted(Family family, uint64_t seed,
                               int total_instances, int num_anomalies) {
  Rng rng(seed);
  auto made = datasets::MakeMultiPlantedSeries(ToDataset(family), rng,
                                               total_instances, num_anomalies);
  LabeledSeries out;
  out.values = std::move(made.values);
  out.anomalies.reserve(made.anomalies.size());
  for (const ts::Window& w : made.anomalies) out.anomalies.push_back(ToRange(w));
  return out;
}

LabeledSeries MakeFridgeFreezer(size_t length, uint64_t seed,
                                bool plant_anomalies) {
  Rng rng(seed);
  auto made = datasets::MakeFridgeFreezerSeries(length, rng, plant_anomalies);
  LabeledSeries out;
  out.values = std::move(made.values);
  out.anomalies.reserve(made.anomalies.size());
  for (const ts::Window& w : made.anomalies) out.anomalies.push_back(ToRange(w));
  return out;
}

std::vector<double> MakeLongEcg(size_t length, uint64_t seed) {
  Rng rng(seed);
  return datasets::MakeLongEcg(length, rng);
}

}  // namespace data

// -------------------------------------------------------------------- metrics

namespace {

std::vector<core::Anomaly> ToAnomalies(std::span<const Detection> detections) {
  std::vector<core::Anomaly> out;
  out.reserve(detections.size());
  for (const Detection& d : detections) {
    core::Anomaly a;
    a.position = d.position;
    a.length = d.length;
    a.severity = d.severity;
    a.run_length = d.run_length;
    out.push_back(a);
  }
  return out;
}

ts::Window ToWindow(const Range& r) { return ts::Window{r.start, r.length}; }

}  // namespace

double ScoreEq5(size_t predict_position, size_t gt_position,
                size_t gt_length) {
  return eval::ScoreEq5(predict_position, gt_position, gt_length);
}

double BestScore(std::span<const Detection> candidates,
                 const Range& ground_truth) {
  return eval::BestScore(ToAnomalies(candidates), ToWindow(ground_truth));
}

bool IsHit(std::span<const Detection> candidates, const Range& ground_truth) {
  return eval::IsHit(ToAnomalies(candidates), ToWindow(ground_truth));
}

// --------------------------------------------------------------------- motifs

Result<std::vector<Motif>> DiscoverMotifs(std::span<const double> series,
                                          const MotifOptions& options) {
  core::MotifParams params;
  params.gi.window_length = options.window_length;
  params.gi.paa_size = options.paa_size;
  params.gi.alphabet_size = options.alphabet_size;
  params.top_k = options.top_k;
  params.min_instances = options.min_instances;
  params.min_length_factor = options.min_length_factor;
  EGI_ASSIGN_OR_RETURN(auto found, core::DiscoverMotifs(series, params));
  std::vector<Motif> out;
  out.reserve(found.size());
  for (core::Motif& m : found) {
    Motif pub;
    pub.rule_index = m.rule_index;
    pub.token_span = m.token_span;
    pub.instances.reserve(m.instances.size());
    for (const ts::Window& w : m.instances) {
      pub.instances.push_back(Range{w.start, w.length});
    }
    pub.coverage = m.coverage;
    pub.words = std::move(m.words);
    out.push_back(std::move(pub));
  }
  return out;
}

// ----------------------------------------------------------------- primitives

Result<std::string> SaxWord(std::span<const double> values, int paa_size,
                            int alphabet_size) {
  return sax::SaxWordForSubsequence(values, paa_size, alphabet_size);
}

TokenRuns ReduceNumerosity(std::span<const int32_t> raw) {
  sax::TokenSequence reduced = sax::NumerosityReduce(raw);
  return TokenRuns{std::move(reduced.tokens), std::move(reduced.offsets)};
}

std::string InducedGrammarText(
    std::span<const int32_t> tokens,
    const std::function<std::string(int32_t)>& render_terminal) {
  return grammar::InduceGrammar(tokens).ToString(render_terminal);
}

std::vector<double> RuleDensityCurve(std::span<const int32_t> tokens,
                                     std::span<const size_t> offsets,
                                     size_t series_length,
                                     size_t window_length) {
  const grammar::Grammar grammar = grammar::InduceGrammar(tokens);
  return grammar::BuildRuleDensityCurve(grammar, offsets, series_length,
                                        window_length);
}

}  // namespace egi
