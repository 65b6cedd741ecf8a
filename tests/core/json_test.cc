/**
 * @file
 * core::json: the writer's compact and pretty layouts, lossless
 * round trips of strings and numbers, and the parser's nesting limit.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "core/json.hh"

namespace jetsim {
namespace {

namespace json = core::json;

void
writeSample(json::Writer &w)
{
    w.beginObject();
    w.key("list").beginArray();
    for (const int i : {1, 2}) {
        w.beginObject();
        w.field("id", i);
        w.field("ok", i == 1);
        w.endObject();
    }
    w.endArray();
    w.key("empty").beginArray().endArray();
    w.endObject();
}

TEST(Json, CompactAndPrettyLayouts)
{
    json::Writer compact;
    writeSample(compact);
    EXPECT_EQ(compact.str(),
              "{\"list\":[{\"id\":1,\"ok\":true},{\"id\":2,\"ok\":false}],"
              "\"empty\":[]}");

    json::Writer pretty(2);
    writeSample(pretty);
    EXPECT_EQ(pretty.str(), "{\n"
                            "  \"list\": [\n"
                            "    {\"id\": 1, \"ok\": true},\n"
                            "    {\"id\": 2, \"ok\": false}\n"
                            "  ],\n"
                            "  \"empty\": []\n"
                            "}");
}

TEST(Json, StringsAndNumbersRoundTripExactly)
{
    std::string every_ascii;
    for (int c = 1; c < 128; ++c)
        every_ascii += static_cast<char>(c);
    const double third = 1.0 / 3.0;
    const auto big = std::numeric_limits<std::uint64_t>::max();

    json::Writer w;
    w.beginObject();
    w.field("s", every_ascii);
    w.field("d", third);
    w.field("u", big);
    w.field("i", std::int64_t{-42});
    w.endObject();
    for (const char c : w.str())
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control";

    const auto v = json::parse(w.str());
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(json::as<std::string>(v->find("s")), every_ascii);
    EXPECT_EQ(json::as<double>(v->find("d")), third);
    EXPECT_EQ(json::as<std::uint64_t>(v->find("u")), big);
    EXPECT_EQ(json::as<std::int64_t>(v->find("i")), -42);
    EXPECT_FALSE(json::as<std::uint64_t>(v->find("i")).has_value());
    EXPECT_FALSE(json::as<int>(v->find("u")).has_value());
    EXPECT_FALSE(json::as<int>(v->find("d")).has_value());
    EXPECT_FALSE(json::as<std::string>(v->find("missing")).has_value());
}

TEST(Json, NestingDeeperThanTheLimitIsMalformed)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_TRUE(json::parse(nested(json::kMaxDepth)).has_value());
    EXPECT_FALSE(json::parse(nested(json::kMaxDepth + 1)).has_value());
    EXPECT_FALSE(json::parse(std::string(100000, '{')).has_value());
}

} // namespace
} // namespace jetsim
