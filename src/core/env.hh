/**
 * @file
 * The process's JETSIM_* environment, read once at startup.
 *
 * std::getenv is not thread-safe against concurrent environment
 * mutation, and ambient reads scattered through the tree made each
 * site carry its own concurrency-mt-unsafe suppression. This header
 * is now the only getenv site in src/: every JETSIM_* variable is
 * captured into an immutable snapshot on first use (a magic static,
 * so initialisation is thread-safe by construction) and all
 * consumers — check::Reporter's mode, core::Runner's thread count
 * and cache directory, the benches' quick mode — read the cached
 * copy. After startup no
 * simulation or worker path ever touches the environment.
 *
 * Tests that mutate JETSIM_* via setenv() must call reloadEnv()
 * afterwards, from a quiescent point (no Runner batch in flight, no
 * concurrent simulations) — the same discipline setenv itself
 * already demands of them.
 */

#ifndef JETSIM_CORE_ENV_HH
#define JETSIM_CORE_ENV_HH

#include <cstdlib>
#include <string>

namespace jetsim::core {

/** Snapshot of every JETSIM_* environment variable jetsim reads.
 * Empty string == unset (no consumer distinguishes the two). */
struct Env
{
    std::string check_mode; ///< JETSIM_CHECK_MODE (abort|log|count)
    std::string threads;    ///< JETSIM_THREADS (worker-count override)
    std::string cache_dir;  ///< JETSIM_CACHE_DIR (result-cache root)
    bool quick = false;     ///< JETSIM_QUICK set: benches run short windows
};

namespace detail {

inline Env
readEnv()
{
    auto raw = [](const char *name) {
        // The single sanctioned environment read: startup (or an
        // explicitly quiescent reloadEnv()), never a worker path.
        // NOLINTNEXTLINE(concurrency-mt-unsafe) detlint: allow(getenv)
        return std::getenv(name);
    };
    auto get = [&raw](const char *name) -> std::string {
        const char *v = raw(name);
        return v ? v : "";
    };
    Env e;
    e.check_mode = get("JETSIM_CHECK_MODE");
    e.threads = get("JETSIM_THREADS");
    e.cache_dir = get("JETSIM_CACHE_DIR");
    e.quick = raw("JETSIM_QUICK") != nullptr;
    return e;
}

inline Env &
envSlot()
{
    // Written at first use and by reloadEnv() (quiescent points
    // only); read-only everywhere else. jetrace: confined(main)
    static Env e = readEnv();
    return e;
}

} // namespace detail

/** The cached startup environment (first call snapshots it). */
inline const Env &
env()
{
    return detail::envSlot();
}

/**
 * Re-snapshot the environment. Test hook for suites that setenv()
 * JETSIM_* at runtime; call only from a quiescent point — never
 * while a Runner batch or any simulation is in flight.
 */
inline void
reloadEnv()
{
    detail::envSlot() = detail::readEnv();
}

} // namespace jetsim::core

#endif // JETSIM_CORE_ENV_HH
