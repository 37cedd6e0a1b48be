// Planner unit tests: the interval-coloring arena allocator, the JSON reader,
// and plan determinism (a plan is a pure function of the net).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cgdnn/core/rng.hpp"
#include "cgdnn/data/dataset.hpp"
#include "cgdnn/net/models.hpp"
#include "cgdnn/net/net.hpp"
#include "cgdnn/plan/arena_plan.hpp"
#include "cgdnn/plan/json_lite.hpp"
#include "cgdnn/plan/planner.hpp"

namespace cgdnn {
namespace {

// ---- interval-coloring arena allocator -------------------------------------

// Reference simulation of the timeline: every live interval stamps its id
// over its byte range each step; preserved means the stamp survives to the
// end. Used to cross-check ComputePreserved on adversarial inputs.
std::vector<bool> SimulatePreserved(
    const std::vector<plan::LifetimeInterval>& ivs) {
  index_t total = 0, tmax = 0;
  for (const auto& iv : ivs) {
    total = std::max(total, iv.offset + iv.bytes);
    tmax = std::max(tmax, iv.end);
  }
  std::vector<int> mem(static_cast<std::size_t>(total), -1);
  for (index_t t = 0; t <= tmax; ++t) {
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      if (ivs[i].start <= t && t <= ivs[i].end) {
        std::fill(mem.begin() + ivs[i].offset,
                  mem.begin() + ivs[i].offset + ivs[i].bytes,
                  static_cast<int>(i));
      }
    }
  }
  std::vector<bool> preserved(ivs.size());
  for (std::size_t i = 0; i < ivs.size(); ++i) {
    preserved[i] = std::all_of(
        mem.begin() + ivs[i].offset,
        mem.begin() + ivs[i].offset + ivs[i].bytes,
        [&](int id) { return id == static_cast<int>(i); });
  }
  return preserved;
}

TEST(ArenaPlan, AdversarialRandomLifetimesAreValidAndAligned) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<index_t> start_d(0, 39);
  std::uniform_int_distribution<index_t> len_d(0, 12);
  std::uniform_int_distribution<index_t> bytes_d(1, 9999);
  std::vector<plan::LifetimeInterval> ivs;
  for (int i = 0; i < 64; ++i) {
    plan::LifetimeInterval iv;
    iv.name = "iv" + std::to_string(i);
    iv.start = start_d(rng);
    iv.end = iv.start + len_d(rng);
    iv.bytes = bytes_d(rng);
    ivs.push_back(iv);
  }
  const auto layout = plan::PlanArenaOffsets(ivs);
  std::string why;
  EXPECT_TRUE(plan::ValidateLayout(layout.intervals, &why)) << why;
  EXPECT_LE(layout.total_bytes, layout.per_plane_bytes + 64 * 64);
  for (const auto& iv : layout.intervals) {
    EXPECT_EQ(iv.offset % 64, 0) << iv.name;
  }
  // Preserved flags must agree with a byte-level timeline simulation.
  const auto sim = SimulatePreserved(layout.intervals);
  for (std::size_t i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(layout.intervals[i].preserved, sim[i])
        << layout.intervals[i].name;
  }
}

TEST(ArenaPlan, DisjointLifetimesShareOneSlot) {
  std::vector<plan::LifetimeInterval> ivs(3);
  for (int i = 0; i < 3; ++i) {
    ivs[i].name = "chain" + std::to_string(i);
    ivs[i].start = 2 * i;
    ivs[i].end = 2 * i + 1;
    ivs[i].bytes = 1000;
  }
  const auto layout = plan::PlanArenaOffsets(ivs);
  EXPECT_EQ(layout.intervals[0].offset, layout.intervals[1].offset);
  EXPECT_EQ(layout.intervals[1].offset, layout.intervals[2].offset);
  EXPECT_EQ(layout.total_bytes, 1024);  // one slot, 64-aligned
  // Only the last occupant survives the iteration.
  EXPECT_FALSE(layout.intervals[0].preserved);
  EXPECT_FALSE(layout.intervals[1].preserved);
  EXPECT_TRUE(layout.intervals[2].preserved);
}

TEST(ArenaPlan, InPlaceAliasedDataAndDiffNeverShareAddresses) {
  // An in-place chain's data plane [1, 8] and its diff plane [5, 6] are
  // simultaneously live mid-backward; they must land on disjoint offsets.
  std::vector<plan::LifetimeInterval> ivs(2);
  ivs[0].name = "ip1";
  ivs[0].kind = plan::SlotKind::kData;
  ivs[0].start = 1;
  ivs[0].end = 8;
  ivs[0].bytes = 4096;
  ivs[1].name = "ip1";
  ivs[1].kind = plan::SlotKind::kDiff;
  ivs[1].start = 5;
  ivs[1].end = 6;
  ivs[1].bytes = 4096;
  const auto layout = plan::PlanArenaOffsets(ivs);
  EXPECT_FALSE(
      plan::AddrOverlap(layout.intervals[0], layout.intervals[1]));
  EXPECT_TRUE(plan::ValidateLayout(layout.intervals, nullptr));
}

TEST(ArenaPlan, ValidateLayoutCatchesInjectedCollision) {
  std::vector<plan::LifetimeInterval> ivs(2);
  ivs[0].name = "a";
  ivs[0].start = 0;
  ivs[0].end = 5;
  ivs[0].bytes = 512;
  ivs[1].name = "b";
  ivs[1].start = 3;
  ivs[1].end = 7;
  ivs[1].bytes = 512;
  auto layout = plan::PlanArenaOffsets(ivs);
  ASSERT_TRUE(plan::ValidateLayout(layout.intervals, nullptr));
  // The bad-plan sentinel: force the second live interval onto the first.
  layout.intervals[1].offset = layout.intervals[0].offset;
  std::string why;
  EXPECT_FALSE(plan::ValidateLayout(layout.intervals, &why));
  EXPECT_NE(why.find("share addresses"), std::string::npos);
}

// ---- JSON reader -----------------------------------------------------------

TEST(JsonLite, ParsesTheSubsetThePlannerWrites) {
  plan::JsonValue v;
  ASSERT_TRUE(plan::JsonValue::Parse(
      R"({"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -3}})", &v));
  EXPECT_DOUBLE_EQ(v.GetNumber("a"), 1.5);
  const auto* b = v.Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array().size(), 3u);
  EXPECT_TRUE(b->array()[0].AsBool());
  EXPECT_EQ(b->array()[2].AsString(), "x\n\"y\"");
  ASSERT_NE(v.Find("c"), nullptr);
  EXPECT_EQ(v.Find("c")->GetInt("d"), -3);
}

TEST(JsonLite, MalformedInputsFail) {
  plan::JsonValue v;
  EXPECT_FALSE(plan::JsonValue::Parse("{", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("{\"a\": }", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("[1, 2,]", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("\"unterminated", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("{} trailing", &v));
  EXPECT_FALSE(plan::JsonValue::Parse("", &v));
}

// ---- plan determinism -------------------------------------------------------

// Two plans of one net must serialize byte for byte alike: the planner reads
// only layers and shapes, never the clock or the machine.
TEST(PlanDeterminism, SameNetGivesByteIdenticalJson) {
  models::ModelOptions o;
  o.batch_size = 8;
  o.num_samples = 16;
  o.with_accuracy = false;
  const std::vector<std::pair<std::string, proto::NetParameter>> nets = {
      {"lenet", models::LeNet(o)}, {"cifar10_quick", models::Cifar10Quick(o)}};
  for (const auto& [name, param] : nets) {
    for (const Phase phase : {Phase::kTrain, Phase::kTest}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(name + (phase == Phase::kTrain ? " train" : " test") +
                     " threads=" + std::to_string(threads));
        SeedGlobalRng(1234);
        data::ClearDatasetCache();
        const Net<float> net(param, phase);
        plan::PlannerOptions opts;
        opts.threads = threads;
        const auto first = plan::BuildPlan(net, opts);
        const auto second = plan::BuildPlan(net, opts);
        EXPECT_GT(first.plan.arena.total_bytes, 0);
        EXPECT_EQ(first.plan.ToJson(), second.plan.ToJson());
      }
    }
  }
}

}  // namespace
}  // namespace cgdnn
