/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own files, around its calls
 * into the library's public API; nothing inside the simulator is
 * instrumented. A span has a name ("<layer>.<call>"), a start and an
 * end in host nanoseconds, the span that encloses it and the cell it
 * belongs to. A disabled Tracer records nothing, so the same replay
 * code runs traced and untraced and the two wall times give the
 * tracing overhead.
 */

#ifndef JETBENCH_TRACE_HH
#define JETBENCH_TRACE_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace jetbench {

/** Host steady-clock time in nanoseconds. */
double nowNs();

/** One recorded interval. */
struct Span
{
    std::string name; ///< "<layer>.<call>", e.g. "workload.deploy"
    double start_ns = 0;
    double end_ns = 0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int cell = -1;   ///< cell / board index, -1 when not per-cell
};

/** Single-threaded span recorder. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span; returns its id, or -1 when tracing is off. */
    int begin(std::string_view name, int cell);

    /** Close the span @p id opened by begin(). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per layer (the name's prefix before '.'): each
     * span's duration minus the durations of its direct children. */
    std::map<std::string, double> selfNsByLayer() const;

    /** Summed duration and count of spans named @p name. */
    double totalNs(std::string_view name) const;
    std::size_t count(std::string_view name) const;

    /** Host time inside [t0, t1] covered by root spans. */
    double coveredNs(double t0, double t1) const;

    /** Write every span as a Chrome trace-event JSON file. */
    bool write(const std::string &path) const;

  private:
    bool on_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, std::string_view name, int cell = -1)
        : t_(t), id_(t.begin(name, cell))
    {
    }
    ~Scope() { t_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

} // namespace jetbench

#endif // JETBENCH_TRACE_HH
