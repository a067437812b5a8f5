// Tests for the opt-in f32 compiled-plan tier: activation under the
// error bound, automatic fallback to f64 when the bound is blown, bitwise
// f64 golden behavior at the default precision, precision surviving
// serialization, tier switching, and serialized-size accounting
// (SizeBytes() == bytes Save() writes). Also covers the sketch image
// loader: images in the older format that carried an int8 tier (trailer
// bits 2-3 plus a calibration block) still load, and hostile length
// fields fail with a Status instead of aborting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/neurosketch.h"
#include "data/generators.h"
#include "index/kdtree.h"
#include "nn/inference_plan.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "query/predicate.h"
#include "serve/sketch_store.h"
#include "util/random.h"

namespace neurosketch {
namespace {

struct Bench {
  std::vector<QueryInstance> train_q;
  std::vector<double> train_a;
  std::vector<QueryInstance> probes;
  NeuroSketchConfig cfg;
};

Bench MakeBench(uint64_t seed) {
  Bench b;
  Table t = MakeUniformTable(4000, 2, seed);
  ExactEngine engine(&t);
  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  WorkloadConfig wc;
  wc.num_active = 1;
  wc.seed = seed + 1;
  WorkloadGenerator gen(2, wc);
  b.train_q = gen.GenerateMany(500, &engine, &spec);
  b.train_a = engine.AnswerBatch(spec, b.train_q);

  WorkloadConfig pc = wc;
  pc.seed = seed + 3;
  WorkloadGenerator pgen(2, pc);
  b.probes = pgen.GenerateMany(200, &engine, &spec);

  b.cfg.tree_height = 2;
  b.cfg.target_partitions = 4;
  b.cfg.n_layers = 4;
  b.cfg.l_first = 24;
  b.cfg.l_rest = 16;
  b.cfg.train.epochs = 40;
  b.cfg.seed = seed + 2;
  return b;
}

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

TEST(PrecisionTest, F32ActivatesWithinBoundAndStaysCloseToF64) {
  Bench b = MakeBench(91);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const NeuroSketch& ns = sketch.value();

  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kF32)
      << "f32 tier should activate under the default bound (measured "
      << ns.f32_max_divergence() << ")";
  EXPECT_TRUE(ns.has_f32_plans());
  EXPECT_GT(ns.f32_max_divergence(), 0.0);
  EXPECT_LE(ns.f32_max_divergence(), ns.f32_error_bound());
  // The f32 tier halves the resident flat-buffer footprint.
  EXPECT_EQ(ns.PlanBytes(PlanPrecision::kF32),
            ns.PlanBytes(PlanPrecision::kF64) / 2);

  // The batch surface serves the same f32 bits as single-query Answer,
  // and both stay close to the f64 scalar reference. The bound is
  // in standardized units; scale it into answer space by the workload's
  // max |answer|, an upper proxy for any leaf's target stddev.
  const auto batch = ns.AnswerBatch(b.probes);
  double max_abs = 0.0;
  for (const auto& q : b.probes) {
    max_abs = std::max(max_abs, std::fabs(ns.AnswerScalar(q)));
  }
  const double tol = ns.f32_error_bound() * (1.0 + max_abs);
  for (size_t i = 0; i < b.probes.size(); ++i) {
    const double f32_answer = ns.Answer(b.probes[i]);
    const double f64_answer = ns.AnswerScalar(b.probes[i]);
    EXPECT_EQ(f32_answer, batch[i]) << "probe " << i;
    EXPECT_NEAR(f32_answer, f64_answer, tol) << "probe " << i;
  }
}

TEST(PrecisionTest, BlownErrorBoundFallsBackToF64) {
  Bench b = MakeBench(92);
  b.cfg.plan_precision = PlanPrecision::kF32;
  b.cfg.f32_error_bound = 0.0;  // nothing passes: force the fallback
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  const NeuroSketch& ns = sketch.value();

  EXPECT_EQ(ns.plan_precision(), PlanPrecision::kF64);
  EXPECT_FALSE(ns.has_f32_plans());
  EXPECT_GT(ns.f32_max_divergence(), 0.0);  // measured, then rejected
  // Fallback means the golden contract holds: bit-identical to scalar.
  for (const auto& q : b.probes) {
    EXPECT_EQ(ns.Answer(q), ns.AnswerScalar(q));
  }
}

TEST(PrecisionTest, DefaultPrecisionIsBitwiseGolden) {
  if (ForceF32PlansFromEnv()) {
    GTEST_SKIP() << "NEUROSKETCH_FORCE_F32_PLANS upgrades the default tier";
  }
  Bench b = MakeBench(93);
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  EXPECT_EQ(sketch.value().plan_precision(), PlanPrecision::kF64);
  for (const auto& q : b.probes) {
    EXPECT_EQ(sketch.value().Answer(q), sketch.value().AnswerScalar(q));
  }
}

TEST(PrecisionTest, SelectPrecisionSwitchesTiers) {
  Bench b = MakeBench(94);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  NeuroSketch& ns = sketch.value();
  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kF32);
  const double f32_answer = ns.Answer(b.probes[0]);

  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF64).ok());
  EXPECT_EQ(ns.Answer(b.probes[0]), ns.AnswerScalar(b.probes[0]));
  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF32).ok());
  EXPECT_EQ(ns.Answer(b.probes[0]), f32_answer);

  // A sketch without f32 plans refuses the f32 tier.
  Bench b64 = MakeBench(95);
  b64.cfg.plan_precision = PlanPrecision::kF64;
  auto plain = NeuroSketch::Train(b64.train_q, b64.train_a, b64.cfg);
  ASSERT_TRUE(plain.ok());
  if (!plain.value().has_f32_plans()) {
    EXPECT_FALSE(plain.value().SelectPrecision(PlanPrecision::kF32).ok());
  }
  // EnableF32 compiles the tier after the fact.
  EXPECT_TRUE(plain.value().EnableF32(b64.train_q,
                                      NeuroSketchConfig().f32_error_bound));
  EXPECT_EQ(plain.value().plan_precision(), PlanPrecision::kF32);
}

TEST(PrecisionTest, EnableF32RefusesEmptyValidation) {
  Bench b = MakeBench(99);
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  // No validation coverage -> f32 must not activate: it is never served
  // blind.
  EXPECT_FALSE(sketch.value().EnableF32(
      {}, NeuroSketchConfig().f32_error_bound));
  EXPECT_EQ(sketch.value().plan_precision(), PlanPrecision::kF64);
  EXPECT_FALSE(sketch.value().has_f32_plans());
}

TEST(PrecisionTest, PrecisionSurvivesSaveLoadBitExactly) {
  Bench b = MakeBench(96);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  ASSERT_EQ(sketch.value().plan_precision(), PlanPrecision::kF32);

  const std::string path = testing::TempDir() + "/ns_precision_roundtrip.bin";
  ASSERT_TRUE(sketch.value().Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded.value().plan_precision(), PlanPrecision::kF32);
  EXPECT_TRUE(loaded.value().has_f32_plans());
  EXPECT_EQ(loaded.value().f32_max_divergence(),
            sketch.value().f32_max_divergence());
  EXPECT_EQ(loaded.value().f32_error_bound(),
            sketch.value().f32_error_bound());
  for (const auto& q : b.probes) {
    // The f32 narrowing is deterministic, so the loaded sketch serves the
    // exact same f32 bits, and its f64 reference is untouched.
    EXPECT_EQ(loaded.value().Answer(q), sketch.value().Answer(q));
    EXPECT_EQ(loaded.value().AnswerScalar(q), sketch.value().AnswerScalar(q));
  }
}

TEST(PrecisionTest, InactiveF32TierSurvivesSaveLoad) {
  Bench b = MakeBench(90);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  NeuroSketch& ns = sketch.value();
  ASSERT_EQ(ns.plan_precision(), PlanPrecision::kF32);
  const double f32_answer = ns.Answer(b.probes[0]);

  // Serve the reference tier for a while, then Save: the validated f32
  // plans must not be lost across the round-trip.
  ASSERT_TRUE(ns.SelectPrecision(PlanPrecision::kF64).ok());
  const std::string path = testing::TempDir() + "/ns_inactive_f32.bin";
  ASSERT_TRUE(ns.Save(path).ok());
  auto loaded = NeuroSketch::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());

  EXPECT_EQ(loaded.value().plan_precision(), PlanPrecision::kF64);
  EXPECT_TRUE(loaded.value().has_f32_plans());
  ASSERT_TRUE(loaded.value().SelectPrecision(PlanPrecision::kF32).ok());
  EXPECT_EQ(loaded.value().Answer(b.probes[0]), f32_answer);
}

TEST(PrecisionTest, SizeBytesMatchesSaveOutputExactly) {
  for (PlanPrecision p : {PlanPrecision::kF64, PlanPrecision::kF32}) {
    Bench b = MakeBench(97);
    b.cfg.plan_precision = p;
    auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
    ASSERT_TRUE(sketch.ok());
    const std::string path = testing::TempDir() + "/ns_sizebytes.bin";
    ASSERT_TRUE(sketch.value().Save(path).ok());
    EXPECT_EQ(sketch.value().SizeBytes(), FileBytes(path))
        << "precision " << PlanPrecisionName(sketch.value().plan_precision());
    std::remove(path.c_str());
  }
}

TEST(PrecisionTest, StoreListingReportsPrecision) {
  Bench b = MakeBench(98);
  b.cfg.plan_precision = PlanPrecision::kF32;
  auto sketch = NeuroSketch::Train(b.train_q, b.train_a, b.cfg);
  ASSERT_TRUE(sketch.ok());
  ASSERT_EQ(sketch.value().plan_precision(), PlanPrecision::kF32);

  QueryFunctionSpec spec;
  spec.predicate = AxisRangePredicate::Make();
  spec.agg = Aggregate::kCount;
  spec.measure_col = 0;
  serve::SketchStore store;
  ASSERT_TRUE(store.Register("uni", spec, std::move(sketch).value()).ok());
  const auto listings = store.List();
  ASSERT_EQ(listings.size(), 1u);
  EXPECT_EQ(listings[0].precision, PlanPrecision::kF32);
  EXPECT_TRUE(listings[0].compiled);
}


// ------------------------------------------------------ sketch image format

std::string SaveToString(const NeuroSketch& ns) {
  std::ostringstream out;
  EXPECT_TRUE(ns.SaveTo(&out).ok());
  return out.str();
}

Result<NeuroSketch> LoadFromString(const std::string& image) {
  std::istringstream in(image);
  return NeuroSketch::LoadFrom(&in);
}

template <typename T>
T Peek(const std::string& image, size_t offset) {
  T value{};
  EXPECT_LE(offset + sizeof(T), image.size());
  if (offset + sizeof(T) <= image.size()) {
    std::memcpy(&value, image.data() + offset, sizeof(T));
  }
  return value;
}

template <typename T>
void Poke(std::string* image, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), image->size());
  std::memcpy(&(*image)[offset], &value, sizeof(T));
}

template <typename T>
void Append(std::string* image, T value) {
  image->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Every image ends with the precision trailer: magic, precision word,
// f32 bound, f32 measured divergence.
size_t PrecisionWordOffset(const std::string& image) {
  return image.size() - 2 * sizeof(double) - sizeof(uint32_t);
}

// Layers per leaf model for a Bench config (hidden layers + output).
size_t LeafLayers(const NeuroSketch& ns, const NeuroSketchConfig& cfg) {
  return nn::MlpConfig::Paper(ns.query_dim(), cfg.n_layers, cfg.l_first,
                              cfg.l_rest)
             .hidden.size() +
         1;
}

// `f64_image` rewritten in the layout sketches had while an int8 tier
// existed: the precision word set to `bits` (bit 2 = int8 active, bit 3 =
// int8 carried) and the int8 calibration block appended — the int8 bound
// and measured divergence, then per leaf a layer count and that many
// per-layer absmax doubles. Leaf 0 is written uncovered (0 layers), as
// the old writer did for a leaf without calibration coverage.
std::string LegacyInt8Image(const std::string& f64_image, uint32_t bits,
                            size_t leaves, size_t layers) {
  std::string image = f64_image;
  Poke<uint32_t>(&image, PrecisionWordOffset(image), bits);
  Append<double>(&image, 0.25);
  Append<double>(&image, 0.0956);
  for (size_t leaf = 0; leaf < leaves; ++leaf) {
    const uint64_t nl = leaf == 0 ? 0 : layers;
    Append<uint64_t>(&image, nl);
    for (uint64_t l = 0; l < nl; ++l) Append<double>(&image, 0.5 + l);
  }
  return image;
}

// A trained sketch's f64 image plus its f64 and f32 reference answers.
struct LegacyRig {
  Bench b;
  std::string f64_image;
  std::vector<double> f64_ref, f32_ref;
  size_t leaves = 0, layers = 0;

  static LegacyRig Make(uint64_t seed) {
    LegacyRig r;
    r.b = MakeBench(seed);
    auto trained = NeuroSketch::Train(r.b.train_q, r.b.train_a, r.b.cfg);
    EXPECT_TRUE(trained.ok()) << trained.status().ToString();
    NeuroSketch& ns = trained.value();
    // Under NEUROSKETCH_FORCE_F32_PLANS the build serves f32; the image's
    // precision word is rewritten below either way.
    EXPECT_TRUE(ns.SelectPrecision(PlanPrecision::kF64).ok());
    r.f64_image = SaveToString(ns);
    r.f64_ref = ns.AnswerBatch(r.b.probes);
    // Narrowing is deterministic, so these are the bits any sketch that
    // rebuilds f32 from the same f64 parameters must serve.
    EXPECT_TRUE(ns.EnableF32(r.b.train_q, /*error_bound=*/1.0));
    r.f32_ref = ns.AnswerBatch(r.b.probes);
    r.leaves = ns.num_partitions();
    r.layers = LeafLayers(ns, r.b.cfg);
    return r;
  }
};

TEST(SketchImageTest, LegacyInt8TrailersLoadOntoF32OrF64) {
  const LegacyRig r = LegacyRig::Make(87);
  ASSERT_FALSE(r.f64_image.empty());
  struct Case {
    uint32_t bits;
    PlanPrecision tier;
    bool carries_f32;
  };
  const Case cases[] = {
      {4u | 8u, PlanPrecision::kF64, false},       // int8 active, no f32
      {2u | 4u | 8u, PlanPrecision::kF32, true},   // int8 active, f32 kept
      {8u, PlanPrecision::kF64, false},            // int8 carried only
      {1u | 4u | 8u, PlanPrecision::kF32, true},   // f32 active
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("trailer bits " + std::to_string(c.bits));
    std::istringstream in(
        LegacyInt8Image(r.f64_image, c.bits, r.leaves, r.layers));
    auto loaded = NeuroSketch::LoadFrom(&in);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    // The calibration block is parsed to its end, not left in the stream.
    EXPECT_EQ(in.peek(), std::char_traits<char>::eof());
    const NeuroSketch& ns = loaded.value();
    EXPECT_EQ(ns.plan_precision(), c.tier);
    EXPECT_EQ(ns.has_f32_plans(), c.carries_f32);
    EXPECT_EQ(ns.AnswerBatch(r.b.probes),
              c.tier == PlanPrecision::kF32 ? r.f32_ref : r.f64_ref);

    // Re-saving writes the current format: no int8 bits and no block, so
    // the image is exactly as long as the f64 one and SizeBytes agrees.
    const std::string resaved = SaveToString(ns);
    EXPECT_EQ(ns.SizeBytes(), resaved.size());
    EXPECT_EQ(resaved.size(), r.f64_image.size());
    EXPECT_EQ(Peek<uint32_t>(resaved, PrecisionWordOffset(resaved)) & 12u,
              0u);
  }
}

TEST(SketchImageTest, LegacyInt8BlockIsStillValidated) {
  const LegacyRig r = LegacyRig::Make(88);
  ASSERT_GE(r.leaves, 2u);
  const std::string legacy =
      LegacyInt8Image(r.f64_image, 4u | 8u, r.leaves, r.layers);
  const size_t block = legacy.size() - r.f64_image.size();

  // Truncated anywhere inside the block (including no block at all after
  // a trailer that announces one): IOError.
  for (size_t cut : {size_t{1}, sizeof(double), block - 4, block}) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    auto loaded = LoadFromString(legacy.substr(0, legacy.size() - cut));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << loaded.status().ToString();
  }

  // A leaf layer count that does not match the model: InvalidArgument.
  auto mismatched = LoadFromString(
      LegacyInt8Image(r.f64_image, 4u | 8u, r.leaves, r.layers + 1));
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  // Unknown precision bits above the old format's range stay rejected.
  std::string unknown = r.f64_image;
  Poke<uint32_t>(&unknown, PrecisionWordOffset(unknown), 16u);
  auto rejected = LoadFromString(unknown);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// Hostile length fields must fail as a Status before anything is sized
// from them: no std::bad_alloc, no std::length_error.
const uint64_t kHostileCounts[] = {uint64_t{1} << 40, uint64_t{1} << 60,
                                   ~uint64_t{0}};

void ExpectIOError(const Result<NeuroSketch>& loaded) {
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
      << loaded.status().ToString();
}

TEST(SketchImageTest, HostileRoutingCountIsRejected) {
  for (uint64_t rsize : kHostileCounts) {
    SCOPED_TRACE(rsize);
    std::string image;
    Append<uint64_t>(&image, 2);  // qdim
    Append<uint64_t>(&image, rsize);
    image.resize(80, '\0');
    ExpectIOError(LoadFromString(image));

    // The file path reads through an ifstream: same guard.
    const std::string path = testing::TempDir() + "/ns_hostile_rsize.bin";
    {
      std::ofstream out(path, std::ios::binary);
      out.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    ExpectIOError(NeuroSketch::Load(path));
    std::remove(path.c_str());
  }
}

// A sketch image carrying `routing` and no models: everything past the
// routing block parses, so a load failure is the routing decoder's.
std::string RoutingOnlyImage(const std::vector<double>& routing,
                             uint64_t qdim) {
  std::string image;
  Append<uint64_t>(&image, qdim);
  Append<uint64_t>(&image, routing.size());
  for (double v : routing) Append<double>(&image, v);
  Append<uint64_t>(&image, 0);  // nmodels
  return image;
}

void ExpectRoutingRejected(const std::vector<double>& routing, size_t qdim) {
  auto tree = QuerySpaceKdTree::DecodeRouting(routing, qdim);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument)
      << tree.status().ToString();
  auto loaded = LoadFromString(RoutingOnlyImage(routing, qdim));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

// A right-leaning chain of `internal` split nodes over dimension 0, each
// with a leaf on its left: depth `internal`, leaf ids 0..internal.
std::vector<double> ChainRouting(size_t internal) {
  std::vector<double> enc;
  for (size_t i = 0; i < internal; ++i) {
    enc.insert(enc.end(), {0.0, 0.5, -1.0, static_cast<double>(i)});
  }
  enc.insert(enc.end(), {-1.0, static_cast<double>(internal)});
  return enc;
}

TEST(SketchImageTest, HostileRoutingSplitDimIsRejected) {
  const size_t qdim = 4;
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (double dim : {4.0, 5.0, 1e9, 1e300, -2.0, 0.5, 3.999, nan, inf, -inf}) {
    SCOPED_TRACE(dim);
    ExpectRoutingRejected({dim, 0.5, -1.0, 0.0, -1.0, 1.0}, qdim);
  }
  // A split anywhere in the tree is checked, not only at the root.
  ExpectRoutingRejected({0.0, 0.5, -1.0, 0.0, 7.0, 0.5, -1.0, 1.0, -1.0, 2.0},
                        qdim);
  // No split is possible without a query dimension.
  ExpectRoutingRejected({0.0, 0.5, -1.0, 0.0, -1.0, 1.0}, 0);
}

TEST(SketchImageTest, HostileRoutingLeafIdIsRejected) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (double id : {1.0, 2.0, -1.0, 0.5, 1e300, nan, inf, -inf}) {
    SCOPED_TRACE(id);
    ExpectRoutingRejected({-1.0, id}, 2);  // one leaf: only id 0 is valid
  }
  // Two leaves: ids must be below 2.
  ExpectRoutingRejected({1.0, 0.5, -1.0, 0.0, -1.0, 2.0}, 2);
}

TEST(SketchImageTest, MalformedRoutingShapeIsRejected) {
  ExpectRoutingRejected({0.0, 0.5, -1.0, 0.0}, 2);              // no right
  ExpectRoutingRejected({-1.0, 0.0, -1.0, 0.0}, 2);             // trailing
  ExpectRoutingRejected({0.0, 0.5, 0.0, 0.5, -1.0, 0.0}, 2);    // truncated
}

TEST(SketchImageTest, DeepRoutingIsRejectedWithoutRecursing) {
  const size_t limit = QuerySpaceKdTree::kMaxRoutingDepth;
  // At the bound: decodes, routes, and re-encodes to the same doubles.
  const std::vector<double> deepest = ChainRouting(limit);
  auto tree = QuerySpaceKdTree::DecodeRouting(deepest, 2);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree.value().EncodeRouting(), deepest);
  EXPECT_EQ(tree.value().NumLeaves(), limit + 1);
  const auto* leaf = tree.value().Route(QueryInstance({0.9, 0.9}));
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->leaf_id, static_cast<int>(limit));
  // One level past it, and a chain deep enough to exhaust any call stack
  // a recursive decoder would use: a Status, not a crash.
  for (size_t internal : {limit + 1, size_t{1} << 17}) {
    SCOPED_TRACE(internal);
    ExpectRoutingRejected(ChainRouting(internal), 2);
  }
}

TEST(SketchImageTest, HostileModelCountIsRejected) {
  const LegacyRig r = LegacyRig::Make(89);
  const size_t nmodels_off =
      2 * sizeof(uint64_t) + Peek<uint64_t>(r.f64_image, 8) * sizeof(double);
  ASSERT_EQ(Peek<uint64_t>(r.f64_image, nmodels_off), r.leaves);
  for (uint64_t nmodels : kHostileCounts) {
    SCOPED_TRACE(nmodels);
    std::string image = r.f64_image;
    Poke<uint64_t>(&image, nmodels_off, nmodels);
    ExpectIOError(LoadFromString(image));
  }
}

TEST(SketchImageTest, HostileModelWidthsAreRejected) {
  const LegacyRig r = LegacyRig::Make(86);
  const size_t nmodels_off =
      2 * sizeof(uint64_t) + Peek<uint64_t>(r.f64_image, 8) * sizeof(double);
  // First model header: magic u32, version u32, in_dim u64, out_dim u64,
  // activation u32, hidden count u64, then one u64 per hidden width.
  const size_t model_off =
      nmodels_off + sizeof(uint64_t) + 2 * r.leaves * sizeof(double);
  const size_t in_dim_off = model_off + 2 * sizeof(uint32_t);
  const size_t n_hidden_off = in_dim_off + 2 * sizeof(uint64_t) +
                              sizeof(uint32_t);
  const size_t width0_off = n_hidden_off + sizeof(uint64_t);
  ASSERT_EQ(Peek<uint64_t>(r.f64_image, width0_off), r.b.cfg.l_first);
  for (uint64_t count : kHostileCounts) {
    for (size_t field : {width0_off, n_hidden_off, in_dim_off}) {
      SCOPED_TRACE("field @" + std::to_string(field) + " = " +
                   std::to_string(count));
      std::string image = r.f64_image;
      Poke<uint64_t>(&image, field, count);
      ExpectIOError(LoadFromString(image));
      // The standalone model loaders share the header parser.
      std::istringstream model(image.substr(model_off));
      auto mlp = nn::LoadMlp(&model);
      ASSERT_FALSE(mlp.ok());
      EXPECT_EQ(mlp.status().code(), StatusCode::kIOError);
    }
  }
}

}  // namespace
}  // namespace neurosketch
