#include "core/json.hh"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace jetsim::core::json {

namespace {

/** Recursive descent over the document; any error yields nullopt. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : s_(text) {}

    std::optional<Value> document()
    {
        auto v = value();
        skipWs();
        if (pos_ != s_.size()) // trailing garbage
            return std::nullopt;
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool eat(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    std::optional<Value> value()
    {
        skipWs();
        if (pos_ >= s_.size())
            return std::nullopt;
        const char c = s_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth)
                return std::nullopt;
            ++depth_;
            auto v = container(c == '{');
            --depth_;
            return v;
        }
        if (c == '"')
            return string();
        if (c == 't' || c == 'f' || c == 'n') {
            Value v;
            if (literal("true") || literal("false")) {
                v.kind = Value::Kind::Bool;
                v.boolean = c == 't';
                return v;
            }
            if (literal("null"))
                return v;
            return std::nullopt;
        }
        return number();
    }

    /** An object (@p object) or an array, from its opening bracket. */
    std::optional<Value> container(bool object)
    {
        ++pos_;
        const char close = object ? '}' : ']';
        Value v;
        v.kind = object ? Value::Kind::Object : Value::Kind::Array;
        if (eat(close))
            return v;
        for (;;) {
            std::optional<Value> key;
            if (object && (!(key = string()) || !eat(':')))
                return std::nullopt;
            auto item = value();
            if (!item)
                return std::nullopt;
            if (object)
                v.fields.emplace_back(std::move(key->text),
                                      std::move(*item));
            else
                v.items.push_back(std::move(*item));
            if (eat(','))
                continue;
            if (eat(close))
                return v;
            return std::nullopt;
        }
    }

    std::optional<Value> string()
    {
        if (!eat('"'))
            return std::nullopt;
        Value v;
        v.kind = Value::Kind::String;
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.text += c;
                continue;
            }
            if (pos_ >= s_.size())
                return std::nullopt;
            switch (const char e = s_[pos_++]) {
              case '"': case '\\': case '/': v.text += e; break;
              case 'b': v.text += '\b'; break;
              case 'f': v.text += '\f'; break;
              case 'n': v.text += '\n'; break;
              case 'r': v.text += '\r'; break;
              case 't': v.text += '\t'; break;
              case 'u': {
                const auto hex = s_.substr(pos_, 4);
                unsigned code = 0;
                const auto [end, ec] = std::from_chars(
                    hex.data(), hex.data() + hex.size(), code, 16);
                if (ec != std::errc() || end != hex.data() + 4 ||
                    code > 0x7f)
                    return std::nullopt; // the writer only emits ASCII
                pos_ += 4;
                v.text += static_cast<char>(code);
                break;
              }
              default: return std::nullopt;
            }
        }
        return std::nullopt; // unterminated
    }

    /** The raw token; as<T>() decides whether it is well formed. */
    std::optional<Value> number()
    {
        const std::size_t start = pos_;
        bool digits = false;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '-' || s_[pos_] == '+')) {
            digits |= std::isdigit(static_cast<unsigned char>(s_[pos_]));
            ++pos_;
        }
        if (!digits)
            return std::nullopt;
        Value v;
        v.kind = Value::Kind::Number;
        v.text = s_.substr(start, pos_ - start);
        return v;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[k, v] : fields)
        if (k == key)
            return &v;
    return nullptr;
}

std::optional<Value>
parse(std::string_view text)
{
    return Parser(text).document();
}

void
Writer::next()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (first_.empty())
        return;
    const bool first = first_.back();
    first_.back() = false;
    if (!first)
        out_ += ',';
    const auto level = static_cast<int>(first_.size()) - 1;
    if (level < pretty_)
        out_ += '\n' + std::string(2 * (level + 1), ' ');
    else if (pretty_ > 0 && !first)
        out_ += ' ';
}

Writer &
Writer::raw(std::string_view token)
{
    next();
    out_ += token;
    return *this;
}

Writer &
Writer::open(char bracket)
{
    raw(std::string_view(&bracket, 1));
    first_.push_back(true);
    return *this;
}

Writer &
Writer::close(char bracket)
{
    const bool empty = first_.back();
    first_.pop_back();
    const auto level = static_cast<int>(first_.size());
    if (!empty && level < pretty_)
        out_ += '\n' + std::string(2 * level, ' ');
    out_ += bracket;
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    value(k);
    out_ += pretty_ > 0 ? ": " : ":";
    after_key_ = true;
    return *this;
}

Writer &
Writer::value(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(buf);
}

Writer &
Writer::value(std::string_view s)
{
    next();
    out_ += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out_ += '\\';
            out_ += c;
        } else if (c == '\n') {
            out_ += "\\n";
        } else if (c == '\t') {
            out_ += "\\t";
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
        } else {
            out_ += c;
        }
    }
    out_ += '"';
    return *this;
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return ss.str();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out || !(out << text).flush())
            return false;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace jetsim::core::json
