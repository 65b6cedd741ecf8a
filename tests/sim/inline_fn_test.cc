/**
 * @file
 * Tests for sim::InlineFn: the heap-fallback path for captures beyond
 * kInlineSize, the fixed-size move recipes vs. the relocate path,
 * self-move safety, and the monotonic process-wide fallback counter
 * that EventPoolAlloc and EventQueue::stats() read.
 */

#include "sim/inline_fn.hh"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <utility>

using jetsim::sim::InlineFn;

namespace {

/** Live-instance counter for destructor accounting. */
struct Tracker
{
    static int live;
    int *hits; ///< bumped on every invocation
    explicit Tracker(int *h) : hits(h) { ++live; }
    Tracker(const Tracker &o) noexcept : hits(o.hits) { ++live; }
    Tracker(Tracker &&o) noexcept : hits(o.hits) { ++live; }
    ~Tracker() { --live; }
    void operator()() const { ++*hits; }
};
int Tracker::live = 0;

} // namespace

TEST(InlineFnTest, SmallCaptureStaysInline)
{
    const auto before = InlineFn::heapFallbackCount();
    int hits = 0;
    InlineFn fn([&hits] { ++hits; });
    EXPECT_FALSE(fn.onHeap());
    fn();
    fn();
    EXPECT_EQ(hits, 2);
    EXPECT_EQ(InlineFn::heapFallbackCount(), before);
}

TEST(InlineFnTest, CaptureBeyondInlineSizeFallsBackToHeap)
{
    const auto before = InlineFn::heapFallbackCount();
    std::array<char, InlineFn::kInlineSize + 16> big{};
    big.back() = 42;
    int sum = 0;
    InlineFn fn([big, &sum] { sum += big.back(); });
    EXPECT_TRUE(fn.onHeap());
    EXPECT_EQ(InlineFn::heapFallbackCount(), before + 1);
    fn();
    EXPECT_EQ(sum, 42);
}

TEST(InlineFnTest, FallbackCounterIsMonotonic)
{
    const auto base = InlineFn::heapFallbackCount();
    std::array<char, InlineFn::kInlineSize + 1> big{};
    for (int i = 0; i < 5; ++i) {
        InlineFn fn([big] { (void)big; });
        EXPECT_TRUE(fn.onHeap());
        EXPECT_EQ(InlineFn::heapFallbackCount(),
                  base + static_cast<std::uint64_t>(i) + 1);
    }
    // Inline constructions, moves and resets never bump the counter.
    InlineFn a([] {});
    InlineFn b(std::move(a));
    b.reset();
    EXPECT_EQ(InlineFn::heapFallbackCount(), base + 5);
}

TEST(InlineFnTest, TrivialMoveRecipesPreserveCapture)
{
    // One capture per fixed-size memcpy recipe (16/32/48 bytes) plus
    // the stateless 0-byte case: the moved-to fn must see the bytes,
    // the moved-from fn must be empty.
    int out = 0;

    InlineFn f0([] {});
    InlineFn g0(std::move(f0));
    EXPECT_TRUE(static_cast<bool>(g0));
    EXPECT_FALSE(static_cast<bool>(f0)); // NOLINT(bugprone-use-after-move)

    std::array<char, 12> c16{};
    c16[11] = 7;
    InlineFn f16([c16, &out] { out = c16[11]; });
    InlineFn g16(std::move(f16));
    g16();
    EXPECT_EQ(out, 7);

    std::array<char, 24> c32{};
    c32[23] = 9;
    InlineFn f32([c32, &out] { out = c32[23]; });
    InlineFn g32(std::move(f32));
    g32();
    EXPECT_EQ(out, 9);

    std::array<char, 40> c48{};
    c48[39] = 11;
    InlineFn f48([c48, &out] { out = c48[39]; });
    InlineFn g48(std::move(f48));
    g48();
    EXPECT_EQ(out, 11);
}

TEST(InlineFnTest, NonTrivialCaptureUsesRelocateAndDestroysOnce)
{
    ASSERT_EQ(Tracker::live, 0);
    int hits = 0;
    {
        InlineFn fn{Tracker(&hits)};
        EXPECT_FALSE(fn.onHeap());
        EXPECT_EQ(Tracker::live, 1);
        InlineFn moved(std::move(fn));
        // Relocate = move-construct into dst + destroy src: exactly
        // one live instance either side of the move.
        EXPECT_EQ(Tracker::live, 1);
        EXPECT_FALSE(static_cast<bool>(fn)); // NOLINT(bugprone-use-after-move)
        moved();
        EXPECT_EQ(hits, 1);
    }
    EXPECT_EQ(Tracker::live, 0);
}

TEST(InlineFnTest, HeapFallbackMoveTransfersOwnership)
{
    ASSERT_EQ(Tracker::live, 0);
    int hits = 0;
    {
        std::array<char, InlineFn::kInlineSize> pad{};
        InlineFn fn([t = Tracker(&hits), pad] {
            (void)pad;
            t();
        });
        EXPECT_TRUE(fn.onHeap());
        EXPECT_EQ(Tracker::live, 1);
        InlineFn moved(std::move(fn));
        EXPECT_TRUE(moved.onHeap());
        EXPECT_EQ(Tracker::live, 1); // pointer steal, no copy
        moved();
        EXPECT_EQ(hits, 1);
    }
    EXPECT_EQ(Tracker::live, 0);
}

TEST(InlineFnTest, SelfMoveAssignIsSafe)
{
    int hits = 0;
    InlineFn fn{Tracker(&hits)};
    ASSERT_EQ(Tracker::live, 1);
    InlineFn *alias = &fn; // defeat -Wself-move
    fn = std::move(*alias);
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_EQ(Tracker::live, 1);
    fn();
    EXPECT_EQ(hits, 1);
    fn.reset();
    EXPECT_EQ(Tracker::live, 0);
}

TEST(InlineFnTest, MoveAssignReleasesPreviousTarget)
{
    int hits_a = 0;
    int hits_b = 0;
    InlineFn a{Tracker(&hits_a)};
    InlineFn b{Tracker(&hits_b)};
    ASSERT_EQ(Tracker::live, 2);
    a = std::move(b);
    EXPECT_EQ(Tracker::live, 1); // a's original capture destroyed
    a();
    EXPECT_EQ(hits_a, 0);
    EXPECT_EQ(hits_b, 1);
    EXPECT_FALSE(static_cast<bool>(b)); // NOLINT(bugprone-use-after-move)
    a = nullptr;
    EXPECT_EQ(Tracker::live, 0);
    EXPECT_FALSE(static_cast<bool>(a));
}
