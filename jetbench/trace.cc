#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace jetbench {

double
nowNs()
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
Tracer::begin(std::string_view name, int cell)
{
    if (!on_)
        return -1;
    const int id = static_cast<int>(spans_.size());
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.cell = cell;
    spans_.push_back(std::move(s));
    open_.push_back(id);
    // Read the clock last so the bookkeeping above is not charged to
    // the span.
    spans_.back().start_ns = nowNs();
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end_ns = nowNs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::map<std::string, double>
Tracer::selfNsByLayer() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const auto &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                s.end_ns - s.start_ns;
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &n = spans_[i].name;
        by_layer[n.substr(0, n.find('.'))] += self[i];
    }
    return by_layer;
}

double
Tracer::totalNs(std::string_view name) const
{
    double t = 0;
    for (const auto &s : spans_)
        if (s.name == name)
            t += s.end_ns - s.start_ns;
    return t;
}

std::size_t
Tracer::count(std::string_view name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return s.name == name; }));
}

double
Tracer::coveredNs(double t0, double t1) const
{
    // Root spans are opened one after another on one thread, so they
    // never overlap and their clipped durations add up.
    double covered = 0;
    for (const auto &s : spans_)
        if (s.parent < 0)
            covered += std::max(0.0, std::min(s.end_ns, t1) -
                                         std::max(s.start_ns, t0));
    return covered;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"cell\":%d}}\n",
                     i ? "," : "", s.name.c_str(),
                     (s.start_ns - origin) / 1e3,
                     (s.end_ns - s.start_ns) / 1e3, i, s.parent, s.cell);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace jetbench
