// Checkpoint round-trip tests for nn::SaveParameters / LoadParameters.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "checkpoint_bytes.h"
#include "common/check.h"
#include "data/traffic_generator.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace stwa {
namespace nn {
namespace {

std::string TempPath(const std::string& name) { return "/tmp/" + name; }

TEST(SerializeTest, RoundTripRestoresExactValues) {
  Rng rng(1);
  Mlp a({4, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  const std::string path = TempPath("stwa_ckpt_mlp.bin");
  SaveParameters(a, path);

  Rng rng2(99);  // different init
  Mlp b({4, 8, 2}, Activation::kRelu, Activation::kNone, &rng2);
  // Confirm they differ before loading.
  EXPECT_GT(ops::MaxAbsDiff(a.Parameters()[0].value(),
                            b.Parameters()[0].value()),
            1e-4f);
  LoadParameters(b, path);
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(ops::AllClose(pa[i].second.value(), pb[i].second.value(),
                              0.0f, 0.0f))
        << pa[i].first;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, RestoredModelPredictsIdentically) {
  const data::TrafficDataset dataset = [] {
    data::GeneratorOptions o;
    o.num_roads = 2;
    o.sensors_per_road = 2;
    o.num_days = 2;
    o.steps_per_day = 48;
    return data::GenerateTraffic(o);
  }();
  baselines::ModelSettings s;
  s.history = 12;
  s.horizon = 3;
  s.d_model = 8;
  s.latent_dim = 4;
  s.predictor_hidden = 16;
  auto a = baselines::MakeModel("ST-WA", dataset, s);
  const std::string path = TempPath("stwa_ckpt_model.bin");
  SaveParameters(*a, path);

  baselines::ModelSettings s2 = s;
  s2.seed = 123;  // different init seed
  auto b = baselines::MakeModel("ST-WA", dataset, s2);
  LoadParameters(*b, path);

  Rng rng(5);
  Tensor x = Tensor::Randn({1, dataset.num_sensors(), 12, 1}, rng);
  Tensor ya = a->Forward(x, /*training=*/false).value();
  Tensor yb = b->Forward(x, /*training=*/false).value();
  EXPECT_TRUE(ops::AllClose(ya, yb, 0.0f, 0.0f));
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchThrows) {
  Rng rng(2);
  Mlp a({4, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  const std::string path = TempPath("stwa_ckpt_shape.bin");
  SaveParameters(a, path);
  Mlp wider({4, 16, 2}, Activation::kRelu, Activation::kNone, &rng);
  EXPECT_THROW(LoadParameters(wider, path), Error);
  std::remove(path.c_str());
}

TEST(SerializeTest, ParameterCountMismatchThrows) {
  Rng rng(3);
  Mlp a({4, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  const std::string path = TempPath("stwa_ckpt_count.bin");
  SaveParameters(a, path);
  Mlp deeper({4, 8, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  EXPECT_THROW(LoadParameters(deeper, path), Error);
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileThrows) {
  Rng rng(4);
  Mlp a({2, 2}, Activation::kNone, Activation::kNone, &rng);
  EXPECT_THROW(LoadParameters(a, "/tmp/definitely_missing_ckpt.bin"),
               Error);
}

TEST(SerializeTest, SaveLeavesNoTempFileBehind) {
  Rng rng(6);
  Mlp a({3, 3}, Activation::kNone, Activation::kNone, &rng);
  const std::string path = TempPath("stwa_ckpt_atomic.bin");
  SaveParameters(a, path);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "temporary file was not renamed away";
  std::ifstream final_file(path, std::ios::binary);
  EXPECT_TRUE(final_file.good());
  std::remove(path.c_str());
}

TEST(SerializeTest, MetadataRoundTrips) {
  Rng rng(7);
  Mlp a({3, 3}, Activation::kNone, Activation::kNone, &rng);
  const std::string path = TempPath("stwa_ckpt_meta.bin");
  CheckpointMeta meta;
  meta.Set("model", "ST-WA");
  meta.SetInt("num_sensors", 307);
  meta.SetFloat("scaler_mean", 211.70089f);
  SaveParameters(a, path, meta);
  CheckpointMeta got = LoadCheckpointMeta(path);
  EXPECT_EQ(got.Get("model"), "ST-WA");
  EXPECT_EQ(got.GetInt("num_sensors"), 307);
  // %.9g formatting makes float round-trips bit-exact.
  EXPECT_EQ(got.GetFloat("scaler_mean"), 211.70089f);
  EXPECT_FALSE(got.Has("absent"));
  EXPECT_EQ(got.GetOr("absent", "fallback"), "fallback");
  EXPECT_THROW(got.Get("absent"), Error);
  std::remove(path.c_str());
}

TEST(SerializeTest, ArchMismatchReportsEveryDifferenceAtOnce) {
  Rng rng(8);
  Mlp a({4, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  const std::string path = TempPath("stwa_ckpt_mismatch.bin");
  CheckpointMeta meta;
  meta.Set("model", "demo-mlp");
  SaveParameters(a, path, meta);
  Mlp other({4, 16, 4}, Activation::kRelu, Activation::kNone, &rng);
  // Keep a copy of the original weights to prove the module is untouched
  // after a failed load.
  Tensor before = other.Parameters()[0].value().Clone();
  try {
    LoadParameters(other, path);
    FAIL() << "expected architecture mismatch";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("architecture mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("demo-mlp"), std::string::npos)
        << "error should name the checkpoint's model: " << msg;
    EXPECT_NE(msg.find("shape mismatch"), std::string::npos) << msg;
  }
  EXPECT_TRUE(ops::AllClose(other.Parameters()[0].value(), before, 0.0f,
                            0.0f))
      << "failed load must leave the module untouched";
  std::remove(path.c_str());
}

TEST(SerializeTest, UnsupportedVersionRejectedWithClearMessage) {
  const std::string path = TempPath("stwa_ckpt_oldver.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const uint32_t magic = 0x53545741, version = 1;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  Rng rng(9);
  Mlp a({2, 2}, Activation::kNone, Activation::kNone, &rng);
  try {
    LoadParameters(a, path);
    FAIL() << "expected version rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

// Rewrites the u32 version word (byte offset 4, after the magic) in an
// already-saved checkpoint. The v2 -> v3 bump added only optional metadata
// entries, so the byte layout is identical and this fabricates a faithful
// v2-era file.
void PatchCheckpointVersion(const std::string& path, uint32_t version) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(4);
  f.write(reinterpret_cast<const char*>(&version), sizeof(version));
}

TEST(SerializeTest, V2CheckpointStillLoads) {
  Rng rng(10);
  Mlp a({4, 8, 2}, Activation::kRelu, Activation::kNone, &rng);
  const std::string path = TempPath("stwa_ckpt_v2compat.bin");
  CheckpointMeta meta;
  meta.Set("model", "demo-mlp");
  SaveParameters(a, path, meta);
  PatchCheckpointVersion(path, 2);

  Rng rng2(77);
  Mlp b({4, 8, 2}, Activation::kRelu, Activation::kNone, &rng2);
  LoadParameters(b, path);  // must not throw
  EXPECT_TRUE(ops::AllClose(a.Parameters()[0].value(),
                            b.Parameters()[0].value(), 0.0f, 0.0f));
  CheckpointMeta got = LoadCheckpointMeta(path);
  EXPECT_EQ(got.Get("model"), "demo-mlp");
  std::remove(path.c_str());
}

TEST(SerializeTest, V3RejectedByV2EraReaderWithActionableError) {
  // Simulate an old binary whose reader tops out at version 2 opening a
  // current (v3) checkpoint: it must fail cleanly and tell the user what
  // to do, not misparse the extra metadata.
  Rng rng(11);
  Mlp a({3, 3}, Activation::kNone, Activation::kNone, &rng);
  const std::string path = TempPath("stwa_ckpt_v3new.bin");
  SaveParameters(a, path);

  internal::SetMaxCheckpointReadVersionForTest(2);
  try {
    LoadParameters(a, path);
    internal::SetMaxCheckpointReadVersionForTest(0);
    FAIL() << "v2-era reader accepted a v3 checkpoint";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version"), std::string::npos) << msg;
    EXPECT_NE(msg.find("upgrade"), std::string::npos)
        << "error should tell the user how to recover: " << msg;
  }
  internal::SetMaxCheckpointReadVersionForTest(0);
  LoadParameters(a, path);  // back to the real reader, loads fine
  std::remove(path.c_str());
}

TEST(SerializeTest, GarbageFileThrows) {
  const std::string path = TempPath("stwa_ckpt_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  Rng rng(5);
  Mlp a({2, 2}, Activation::kNone, Activation::kNone, &rng);
  EXPECT_THROW(LoadParameters(a, path), Error);
  std::remove(path.c_str());
}

// Corrupt size fields must fail as stwa::Error before the loader
// allocates: every count, rank and element product is bounded by the
// bytes left in the file.

TEST(SerializeTest, FlippedDimensionBitFailsAsTypedError) {
  data::GeneratorOptions o;
  o.num_roads = 2;
  o.sensors_per_road = 2;
  o.num_days = 2;
  o.steps_per_day = 48;
  const data::TrafficDataset dataset = data::GenerateTraffic(o);
  baselines::ModelSettings s;
  s.history = 12;
  s.horizon = 3;
  s.d_model = 8;
  s.latent_dim = 4;
  s.predictor_hidden = 16;
  auto model = baselines::MakeModel("ST-WA", dataset, s);
  const std::string path = TempPath("stwa_ckpt_bitflip.bin");
  SaveParameters(*model, path);
  // One high bit in latent.mu's first dimension asks for ~2^46 floats.
  ASSERT_TRUE(FlipFirstDimBit(path, "latent.mu", 46));
  try {
    LoadParameters(*model, path);
    FAIL() << "expected a typed error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("latent.mu"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, EveryTruncationFailsAsTypedError) {
  Rng rng(12);
  Mlp a({3, 4, 2}, Activation::kRelu, Activation::kNone, &rng);
  const std::string path = TempPath("stwa_ckpt_trunc.bin");
  CheckpointMeta meta;
  meta.Set("model", "demo-mlp");
  SaveParameters(a, path, meta);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    EXPECT_THROW(LoadParameters(a, path), Error) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, RankSixteenHugeDimensionsFailAsTypedError) {
  const std::string path = TempPath("stwa_ckpt_rank16.bin");
  {
    std::ofstream out(path, std::ios::binary);
    auto put = [&out](auto v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(uint32_t{0x53545741});  // magic
    put(uint32_t{3});           // version
    put(uint64_t{0});           // metadata entries
    put(uint64_t{1});           // parameters
    put(uint64_t{1});           // name length
    out.put('w');
    put(uint64_t{16});  // rank
    // 2^40 + 1 per dimension: a plain int64 product overflows (UB) and,
    // wrapped, would ask for 2^44 + 1 floats.
    for (int d = 0; d < 16; ++d) put((int64_t{1} << 40) + 1);
  }
  Rng rng(13);
  Mlp a({2, 2}, Activation::kNone, Activation::kNone, &rng);
  EXPECT_THROW(LoadParameters(a, path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nn
}  // namespace stwa
