/**
 * @file
 * Tests for the synthetic dataset generators: shapes, determinism,
 * learnable-structure properties.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/synth_audio.h"
#include "data/synth_images.h"
#include "data/synth_ratings.h"
#include "data/synth_text.h"
#include "data/synth_video.h"
#include "data/synth_voxel.h"

namespace aib::data {
namespace {

TEST(ShapeImages, BatchShapesAndLabelRange)
{
    ShapeImageGenerator gen(10, 3, 16, 0.05f, 42);
    ImageBatch b = gen.batch(8);
    EXPECT_EQ(b.images.shape(), (Shape{8, 3, 16, 16}));
    ASSERT_EQ(b.labels.size(), 8u);
    for (int l : b.labels) {
        EXPECT_GE(l, 0);
        EXPECT_LT(l, 10);
    }
    // Pixels stay in [0, 1].
    for (float v : b.images.toVector()) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(ShapeImages, SeedDeterminism)
{
    ShapeImageGenerator a(5, 3, 12, 0.05f, 7);
    ShapeImageGenerator b(5, 3, 12, 0.05f, 7);
    ImageSample sa = a.sample();
    ImageSample sb = b.sample();
    EXPECT_EQ(sa.label, sb.label);
    EXPECT_EQ(sa.image.toVector(), sb.image.toVector());
}

TEST(ShapeImages, ExemplarsOfDifferentClassesDiffer)
{
    ShapeImageGenerator gen(10, 3, 16, 0.0f, 1);
    Tensor e0 = gen.exemplar(0);
    Tensor e1 = gen.exemplar(1);
    double diff = 0.0;
    for (std::int64_t i = 0; i < e0.numel(); ++i)
        diff += std::fabs(e0.data()[i] - e1.data()[i]);
    EXPECT_GT(diff, 1.0);
}

TEST(ShapeImages, DepthChannelWhenFourChannels)
{
    ShapeImageGenerator gen(4, 4, 16, 0.0f, 3);
    ImageSample s = gen.sample();
    EXPECT_EQ(s.image.dim(0), 4);
    // Depth plane has nonzero support.
    double depth_sum = 0.0;
    for (std::int64_t i = 0; i < 16 * 16; ++i)
        depth_sum += s.image.data()[3 * 16 * 16 + i];
    EXPECT_GT(depth_sum, 0.0);
}

TEST(ShapeImages, InvalidConfigThrows)
{
    EXPECT_THROW(ShapeImageGenerator(1, 3, 8, 0.0f, 0),
                 std::invalid_argument);
    EXPECT_THROW(ShapeImageGenerator(4, 5, 8, 0.0f, 0),
                 std::invalid_argument);
}

TEST(IdentityImages, SameIdentityMoreSimilarThanDifferent)
{
    IdentityImageGenerator gen(8, 3, 12, 0.02f, 11);
    double same = 0.0, diff = 0.0;
    for (int trial = 0; trial < 10; ++trial) {
        Tensor a1 = gen.sampleOf(0);
        Tensor a2 = gen.sampleOf(0);
        Tensor b = gen.sampleOf(1);
        for (std::int64_t i = 0; i < a1.numel(); ++i) {
            same += std::fabs(a1.data()[i] - a2.data()[i]);
            diff += std::fabs(a1.data()[i] - b.data()[i]);
        }
    }
    EXPECT_LT(same, diff);
}

TEST(IdentityImages, TripletBatchShapes)
{
    IdentityImageGenerator gen(5, 3, 10, 0.02f, 13);
    auto t = gen.tripletBatch(4);
    EXPECT_EQ(t.anchor.shape(), (Shape{4, 3, 10, 10}));
    EXPECT_EQ(t.positive.shape(), t.anchor.shape());
    EXPECT_EQ(t.negative.shape(), t.anchor.shape());
}

TEST(DetectionScenes, ObjectsWithinBounds)
{
    DetectionSceneGenerator gen(5, 32, 0.02f, 17);
    for (int i = 0; i < 20; ++i) {
        DetectionScene s = gen.sample();
        EXPECT_EQ(s.image.shape(), (Shape{3, 32, 32}));
        EXPECT_GE(s.objects.size(), 1u);
        EXPECT_LE(s.objects.size(), 2u);
        for (const auto &obj : s.objects) {
            EXPECT_GE(obj.box.x1, 0.0f);
            EXPECT_LE(obj.box.x2, 32.0f);
            EXPECT_GT(obj.box.area(), 0.0f);
            EXPECT_LT(obj.label, 5);
        }
    }
}

TEST(PairedDomains, LabelMapMatchesFilledDomain)
{
    PairedDomainGenerator gen(3, 16, 0.0f, 23);
    PairedScene s = gen.sample();
    EXPECT_EQ(s.domainA.shape(), (Shape{3, 16, 16}));
    EXPECT_EQ(s.labelMap.shape(), (Shape{16, 16}));
    // Wherever the label map is non-zero, domain B has color.
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x) {
            if (s.labelMap.at({y, x}) > 0.0f) {
                float maxc = 0.0f;
                for (int c = 0; c < 3; ++c)
                    maxc = std::max(maxc, s.domainB.at({c, y, x}));
                EXPECT_GT(maxc, 0.1f);
            }
        }
}

TEST(TranslatedGlyphs, ShiftWithinBounds)
{
    TranslatedGlyphGenerator gen(6, 20, 4, 0.02f, 29);
    ImageBatch b = gen.batch(6);
    EXPECT_EQ(b.images.shape(), (Shape{6, 1, 20, 20}));
}

TEST(Translation, TargetIsReversedMappedSource)
{
    TranslationPairGenerator gen(20, 4, 8, 31);
    // The mapping is a bijection: same source token -> same target
    // token (at mirrored positions), across samples.
    std::vector<int> image_of(20, -1);
    for (int i = 0; i < 50; ++i) {
        SeqPair p = gen.sample();
        ASSERT_EQ(p.source.size(), p.target.size());
        for (std::size_t j = 0; j < p.source.size(); ++j) {
            const int src = p.source[j];
            const int dst = p.target[p.source.size() - 1 - j];
            if (image_of[static_cast<std::size_t>(src)] < 0)
                image_of[static_cast<std::size_t>(src)] = dst;
            EXPECT_EQ(image_of[static_cast<std::size_t>(src)], dst);
        }
    }
    // Bijectivity: no two sources map to the same target.
    std::set<int> targets;
    for (int t : image_of)
        if (t >= 0) {
            EXPECT_TRUE(targets.insert(t).second);
        }
}

TEST(Summarization, SummaryTokensAppearInOrderInDocument)
{
    SummarizationGenerator gen(24, 16, 4, 37);
    for (int i = 0; i < 20; ++i) {
        SeqPair p = gen.sample();
        EXPECT_EQ(p.source.size(), 16u);
        EXPECT_EQ(p.target.size(), 4u);
        // Keywords (< vocab/2) appear as a subsequence of the doc.
        std::size_t pos = 0;
        for (int kw : p.target) {
            EXPECT_LT(kw, 12);
            while (pos < p.source.size() && p.source[pos] != kw)
                ++pos;
            ASSERT_LT(pos, p.source.size());
            ++pos;
        }
    }
}

TEST(MarkovText, TokensFollowTransitionStructure)
{
    MarkovTextGenerator gen(16, 3, 41);
    auto tokens = gen.sampleTokens(500);
    EXPECT_EQ(tokens.size(), 500u);
    // Each state has at most `branching` successors.
    std::vector<std::set<int>> succ(16);
    for (std::size_t i = 1; i < tokens.size(); ++i)
        succ[static_cast<std::size_t>(tokens[i - 1])].insert(tokens[i]);
    for (const auto &s : succ)
        EXPECT_LE(s.size(), 3u);
    // Ideal perplexity is far below vocabulary size.
    EXPECT_LT(gen.idealPerplexity(), 4.0);
    EXPECT_GE(gen.idealPerplexity(), 1.0);
}

TEST(Captions, TemplateStructure)
{
    CaptionGenerator gen(6);
    auto cap = gen.captionFor(2);
    ASSERT_EQ(cap.size(), 4u);
    EXPECT_EQ(cap[0], CaptionGenerator::kBos);
    EXPECT_EQ(cap[3], CaptionGenerator::kEos);
    EXPECT_EQ(cap[1], 2 + 2);
    EXPECT_EQ(cap[2], 2 + 6 + 2);
    EXPECT_EQ(gen.vocab(), 14);
    EXPECT_THROW(gen.captionFor(6), std::out_of_range);
}

TEST(Interactions, LeaveOneOutProtocol)
{
    InteractionGenerator gen(20, 50, 4, 5, 43);
    EXPECT_EQ(gen.heldOut().size(), 20u);
    EXPECT_EQ(gen.trainSet().size(), 20u * 5u);
    // Held-out item is not in the training interactions of its user.
    for (const auto &inter : gen.trainSet())
        EXPECT_NE(inter.item,
                  gen.heldOut()[static_cast<std::size_t>(inter.user)]);
    // Negatives were never interacted with.
    auto negs = gen.sampleNegatives(3, 10);
    EXPECT_EQ(negs.size(), 10u);
    for (int item : negs)
        EXPECT_FALSE(gen.userItems()[3].count(item));
}

TEST(Interactions, HeldOutHasHighTrueAffinity)
{
    InteractionGenerator gen(10, 100, 4, 5, 47);
    // The held-out item should on average score higher than a random
    // item under the true latent model.
    double held = 0.0, rand_score = 0.0;
    Rng r(1);
    for (int u = 0; u < 10; ++u) {
        held += gen.trueAffinity(
            u, gen.heldOut()[static_cast<std::size_t>(u)]);
        rand_score += gen.trueAffinity(
            u, static_cast<int>(r.uniformInt(0, 99)));
    }
    EXPECT_GT(held, rand_score);
}

TEST(Utterances, FramesMatchLabelsAndCollapse)
{
    UtteranceGenerator gen(8, 12, 3, 6, 0.05f, 53);
    Utterance u = gen.sample();
    EXPECT_EQ(u.frames.dim(0),
              static_cast<std::int64_t>(u.frameLabels.size()));
    EXPECT_EQ(u.frames.dim(1), 12);
    EXPECT_EQ(UtteranceGenerator::collapse(u.frameLabels), u.phonemes);
    EXPECT_GE(u.phonemes.size(), 3u);
    EXPECT_LE(u.phonemes.size(), 6u);
}

TEST(Video, SpriteMovesAcrossFrames)
{
    MovingSpriteGenerator gen(16, 6, 3, 0.0f, 59);
    VideoClip clip = gen.sample();
    EXPECT_EQ(clip.frames.shape(), (Shape{6, 1, 16, 16}));
    // Consecutive frames differ (the sprite moves).
    const float *p = clip.frames.data();
    double diff = 0.0;
    for (std::int64_t i = 0; i < 16 * 16; ++i)
        diff += std::fabs(p[i] - p[16 * 16 + i]);
    EXPECT_GT(diff, 0.5);
    // Each frame has the sprite (~9 bright pixels).
    for (int t = 0; t < 6; ++t) {
        double mass = 0.0;
        for (std::int64_t i = 0; i < 16 * 16; ++i)
            mass += p[t * 16 * 16 + i];
        EXPECT_NEAR(mass, 9.0, 3.1);
    }
}

TEST(Voxels, ViewIsProjectionOfSolid)
{
    VoxelShapeGenerator gen(12, 4, 0.0f, 61);
    for (int i = 0; i < 8; ++i) {
        VoxelSample s = gen.sample();
        EXPECT_EQ(s.voxels.shape(), (Shape{12, 12, 12}));
        EXPECT_EQ(s.view.shape(), (Shape{1, 12, 12}));
        // Any occupied column must be visible in the view.
        for (int y = 0; y < 12; ++y)
            for (int x = 0; x < 12; ++x) {
                float col = 0.0f;
                for (int z = 0; z < 12; ++z)
                    col = std::max(col, s.voxels.at({z, y, x}));
                EXPECT_FLOAT_EQ(s.view.at({0, y, x}), col);
            }
        // Non-trivial occupancy.
        double filled = 0.0;
        for (float v : s.voxels.toVector())
            filled += v;
        EXPECT_GT(filled, 8.0);
        EXPECT_LT(filled, 12.0 * 12.0 * 12.0);
    }
}

} // namespace
} // namespace aib::data
