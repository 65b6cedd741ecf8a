/**
 * @file
 * The one JSON reader and writer: result-cache entries, jetmc
 * counterexamples, the fleet golden file and jetlint reports.
 *
 * Doubles are written with 17 significant digits and integers
 * verbatim, so numbers round-trip bit-exactly and 64-bit seeds never
 * pass through a double. The parser keeps each number's raw token so
 * the reader picks its type. Malformed input, including nesting deeper
 * than kMaxDepth, parses to nullopt: nothing here crashes or exits.
 */

#ifndef JETSIM_CORE_JSON_HH
#define JETSIM_CORE_JSON_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace jetsim::core::json {

/** One parsed JSON value. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; ///< decoded string, or raw number token
    std::vector<Value> items;
    std::vector<std::pair<std::string, Value>> fields;

    /** Member @p key of an object; nullptr if absent or not an object. */
    const Value *find(std::string_view key) const;
};

/** Containers nested deeper than this are malformed input. */
inline constexpr int kMaxDepth = 64;

/** Parse a whole document; nullopt on any syntax error. */
std::optional<Value> parse(std::string_view text);

/**
 * @p v as a T: bool, std::string, or a number type that holds the
 * token exactly (no fraction for an integer, no sign for an unsigned,
 * in range). nullopt on a null pointer or any mismatch.
 */
template <class T>
std::optional<T>
as(const Value *v)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (v && v->kind == Value::Kind::Bool)
            return v->boolean;
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (v && v->kind == Value::Kind::String)
            return v->text;
    } else if (v && v->kind == Value::Kind::Number) {
        const char *end = v->text.data() + v->text.size();
        T x{};
        const auto [ptr, ec] = std::from_chars(v->text.data(), end, x);
        if (ec == std::errc() && ptr == end)
            return x;
    }
    return std::nullopt;
}

/**
 * Streaming writer. With @p pretty_depth > 0, containers nested less
 * than that deep put each element on its own line (two-space indent)
 * and inline separators get a space ("a": 1, "b": 2); deeper ones stay
 * on one line. With 0 the output is compact.
 */
class Writer
{
  public:
    explicit Writer(int pretty_depth = 0) : pretty_(pretty_depth) {}

    Writer &key(std::string_view k);
    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }

    Writer &value(double v);
    Writer &value(std::int64_t v) { return raw(std::to_string(v)); }
    Writer &value(std::uint64_t v) { return raw(std::to_string(v)); }
    Writer &value(int v) { return raw(std::to_string(v)); }
    Writer &value(bool v) { return raw(v ? "true" : "false"); }
    Writer &value(std::string_view s);
    /** Without this a string literal would pick value(bool). */
    Writer &value(const char *s) { return value(std::string_view(s)); }

    template <class T>
    Writer &field(std::string_view k, const T &v) { return key(k).value(v); }

    const std::string &str() const { return out_; }

  private:
    Writer &open(char bracket);
    Writer &close(char bracket);
    /** Separator and line break before the next key or element. */
    void next();
    Writer &raw(std::string_view token);

    std::string out_;
    int pretty_;
    std::vector<bool> first_; ///< per open container: nothing written yet
    bool after_key_ = false;
};

/** Whole file contents; nullopt if it cannot be read. */
std::optional<std::string> readFile(const std::string &path);

/** Replace @p path with @p text atomically (temp file + rename). */
bool writeFile(const std::string &path, const std::string &text);

} // namespace jetsim::core::json

#endif // JETSIM_CORE_JSON_HH
