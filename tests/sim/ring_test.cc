/**
 * @file
 * sim::Ring: FIFO order across wrap-around and growth, storage reuse,
 * and element lifetimes.
 */

#include "sim/ring.hh"

#include <gtest/gtest.h>

#include <memory>

namespace jetsim::sim {
namespace {

TEST(Ring, FifoOrderSurvivesGrowthWhileWrapped)
{
    Ring<int> r;
    int next_in = 0, next_out = 0;
    // Keep 5 queued so the head walks around the 8-slot buffer, then
    // grow while it is wrapped.
    for (int i = 0; i < 5; ++i)
        r.push_back(next_in++);
    for (int i = 0; i < 20; ++i) {
        r.push_back(next_in++);
        ASSERT_EQ(r.front(), next_out++);
        r.pop_front();
    }
    EXPECT_EQ(r.capacity(), 8u);
    for (int i = 0; i < 30; ++i)
        r.push_back(next_in++);
    EXPECT_EQ(r.capacity(), 64u);
    while (!r.empty()) {
        ASSERT_EQ(r.front(), next_out++);
        r.pop_front();
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(Ring, SteadyStateReusesStorage)
{
    Ring<int> r;
    for (int i = 0; i < 3; ++i)
        r.push_back(i);
    const std::size_t cap = r.capacity();
    for (int i = 0; i < 10000; ++i) {
        r.push_back(i);
        r.pop_front();
    }
    EXPECT_EQ(r.capacity(), cap);
    EXPECT_EQ(r.size(), 3u);
}

TEST(Ring, DestroysItemsOnPopClearAndDestruction)
{
    auto token = std::make_shared<int>(0);
    {
        Ring<std::shared_ptr<int>> r;
        for (int i = 0; i < 20; ++i)
            r.push_back(token);
        EXPECT_EQ(token.use_count(), 21);
        r.pop_front();
        EXPECT_EQ(token.use_count(), 20);
        r.clear();
        EXPECT_EQ(token.use_count(), 1);
        EXPECT_TRUE(r.empty());
        for (int i = 0; i < 4; ++i)
            r.push_back(token);
        Ring<std::shared_ptr<int>> moved(std::move(r));
        EXPECT_EQ(moved.size(), 4u);
        EXPECT_EQ(token.use_count(), 5);
    }
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace jetsim::sim
