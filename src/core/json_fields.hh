/**
 * @file
 * JSON encoding of the structs that have a field table
 * (core/experiment.hh): result-cache entries and jetmc
 * counterexamples are written and read through these two visitors.
 */

#ifndef JETSIM_CORE_JSON_FIELDS_HH
#define JETSIM_CORE_JSON_FIELDS_HH

#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiment.hh"
#include "core/json.hh"

namespace jetsim::core {

/**
 * JSON encoding of each field type: precision and phase by name, a
 * CDF as its raw samples, a vector as an array, a struct as an object
 * of its fields in table order.
 */
struct WriteFields
{
    json::Writer &w;

    template <class T>
    void operator()(const char *k, const T &x)
    {
        w.key(k);
        put(x);
    }

    template <class T>
        requires std::is_arithmetic_v<T> || std::is_same_v<T, std::string>
    void put(const T &x) { w.value(x); }

    void put(soc::Precision p) { w.value(soc::name(p)); }
    void put(Phase p) { w.value(phaseName(p)); }
    void put(const prof::Cdf &c) { put(c.samples()); }

    template <class T>
    void put(const std::vector<T> &xs)
    {
        w.beginArray();
        for (const auto &x : xs)
            put(x);
        w.endArray();
    }

    template <class T>
    void put(const T &obj)
    {
        w.beginObject();
        visitFields(obj, *this);
        w.endObject();
    }
};

/** The inverse of WriteFields, overwriting every field of the target;
 * a missing or mistyped field fails the whole read. */
struct ReadFields
{
    const json::Value &obj;
    const char *failed = nullptr; ///< first missing or mistyped field

    template <class T>
    void operator()(const char *k, T &x)
    {
        if (!failed && !get(obj.find(k), x))
            failed = k;
    }

    template <class T>
        requires std::is_arithmetic_v<T> || std::is_same_v<T, std::string>
    static bool get(const json::Value *v, T &x)
    {
        const auto got = json::as<T>(v);
        if (got)
            x = *got;
        return got.has_value();
    }

    static bool get(const json::Value *v, soc::Precision &x)
    {
        const auto p =
            soc::findPrecision(json::as<std::string>(v).value_or(""));
        if (p)
            x = *p;
        return p.has_value();
    }

    static bool get(const json::Value *v, Phase &x)
    {
        const auto s = json::as<std::string>(v);
        for (const Phase p : {Phase::Light, Phase::Deep})
            if (s == phaseName(p)) {
                x = p;
                return true;
            }
        return false;
    }

    static bool get(const json::Value *v, prof::Cdf &x)
    {
        std::vector<double> samples;
        if (!get(v, samples))
            return false;
        x = prof::Cdf();
        for (const double s : samples)
            x.add(s);
        return true;
    }

    template <class T>
    static bool get(const json::Value *v, std::vector<T> &xs)
    {
        if (!v || v->kind != json::Value::Kind::Array)
            return false;
        xs.clear();
        xs.reserve(v->items.size());
        for (const auto &item : v->items) {
            T x{};
            if (!get(&item, x))
                return false;
            xs.push_back(std::move(x));
        }
        return true;
    }

    template <class T>
    static bool get(const json::Value *v, T &obj)
    {
        if (!v || v->kind != json::Value::Kind::Object)
            return false;
        ReadFields r{*v};
        visitFields(obj, r);
        return !r.failed;
    }
};

} // namespace jetsim::core

#endif // JETSIM_CORE_JSON_FIELDS_HH
