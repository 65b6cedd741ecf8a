/**
 * @file
 * InlineFn: the event queue's small-buffer-optimised callback.
 *
 * The simulator's hot path schedules millions of short-lived
 * callbacks whose captures are tiny (`this` plus a couple of ids).
 * std::function heap-allocates for anything beyond two words;
 * InlineFn stores captures up to kInlineSize bytes in place and only
 * falls back to the heap beyond that. Fallbacks are counted twice
 * over: a process-wide aggregate here (heapFallbackCount, held at
 * zero on the schedule path by the EventPoolAlloc tests) and per
 * event queue (EventQueue::stats().sbo_misses — schedule() counts
 * callbacks it stores, components holding callbacks outside a queue
 * attribute theirs via EventQueue::noteSboMiss), so every miss is
 * attributable to the queue that paid for it.
 *
 * Contract: callbacks whose capture state is <= kInlineSize bytes,
 * suitably aligned and nothrow-move-constructible never allocate.
 * Move-only, void(), one-shot friendly (may be invoked repeatedly but
 * the queue invokes each event once).
 */

#ifndef JETSIM_SIM_INLINE_FN_HH
#define JETSIM_SIM_INLINE_FN_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "core/hot_annotations.hh"

namespace jetsim::sim {

namespace detail {
/** Process-wide count of InlineFn heap fallbacks (test hook). */
inline std::atomic<std::uint64_t> g_inline_fn_heap_fallbacks{0};
} // namespace detail

/** Move-only void() callable with a 48-byte inline capture buffer. */
class InlineFn
{
  public:
    /** Captures up to this many bytes are stored without allocating. */
    static constexpr std::size_t kInlineSize = 48;

    InlineFn() noexcept = default;
    InlineFn(std::nullptr_t) noexcept {} // NOLINT(*-explicit-*)

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFn> &&
                  std::is_invocable_r_v<void, D &>>>
    InlineFn(F &&f) // NOLINT(*-explicit-*): drop-in for std::function
    {
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &kInlineOps<D>;
        } else {
            JETSIM_COLD_OK("SBO miss ledger: counted here, asserted zero by EventPoolAlloc.SteadyStateSchedulePathDoesNotAllocate")
            detail::g_inline_fn_heap_fallbacks.fetch_add(
                1, std::memory_order_relaxed);
            JETSIM_COLD_OK("SBO fallback arm: only reached by captures past 48 bytes, which the gate above proves absent in hot runs")
            ::new (static_cast<void *>(buf_))
                D *(new D(std::forward<F>(f)));
            ops_ = &kHeapOps<D>;
        }
    }

    InlineFn(InlineFn &&o) noexcept { moveFrom(o); }

    InlineFn &
    operator=(InlineFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    InlineFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** Invoke the wrapped callable; undefined when empty. */
    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** True when the capture did not fit inline (heap fallback). */
    bool onHeap() const noexcept { return ops_ && ops_->heap; }

    /** Destroy the wrapped callable, leaving the fn empty. */
    void
    reset() noexcept
    {
        if (ops_) {
            if (ops_->copy_bytes == kRelocateFn)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** Process-wide heap fallbacks since start (test hook). */
    static std::uint64_t
    heapFallbackCount() noexcept
    {
        return detail::g_inline_fn_heap_fallbacks.load(
            std::memory_order_relaxed);
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst's buffer from src's, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        bool heap;
        /** Relocation recipe: kRelocateFn = call relocate(); other
         * values = inline + trivially copyable/destructible, copy
         * exactly this many buffer bytes (0 for stateless captures)
         * and skip destroy(). Lets the hot path avoid two indirect
         * calls for the common trivial captures. */
        std::uint8_t copy_bytes;
    };

    static constexpr std::uint8_t kRelocateFn = 0xff;

    template <typename D>
    static constexpr std::uint8_t
    copyRecipe()
    {
        if (!std::is_trivially_copyable_v<D> ||
            !std::is_trivially_destructible_v<D>)
            return kRelocateFn;
        if (std::is_empty_v<D>)
            return 0;
        return sizeof(D) <= 16 ? 16 : sizeof(D) <= 32 ? 32 : 48;
    }

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= kInlineSize &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    static constexpr Ops kInlineOps = {
        [](void *p) { (*static_cast<D *>(p))(); },
        [](void *dst, void *src) noexcept {
            ::new (dst) D(std::move(*static_cast<D *>(src)));
            static_cast<D *>(src)->~D();
        },
        [](void *p) noexcept { static_cast<D *>(p)->~D(); },
        false,
        copyRecipe<D>(),
    };

    template <typename D>
    static constexpr Ops kHeapOps = {
        [](void *p) { (**static_cast<D **>(p))(); },
        [](void *dst, void *src) noexcept {
            ::new (dst) D *(*static_cast<D **>(src));
        },
        [](void *p) noexcept { delete *static_cast<D **>(p); },
        true,
        kRelocateFn,
    };

    void
    moveFrom(InlineFn &o) noexcept
    {
        if (o.ops_) {
            // Fixed-size copies beat an indirect relocate call for
            // trivial captures; the compare chain is predictable at
            // any call site dominated by one callback type. The
            // bucketed sizes deliberately copy up to 48 bytes even
            // when the capture is smaller — unsigned-char copies of
            // the uninitialized tail are well-defined and never read
            // back, but GCC's -Wmaybe-uninitialized can't see that.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
            switch (o.ops_->copy_bytes) {
              case 0:
                break;
              case 16:
                __builtin_memcpy(buf_, o.buf_, 16);
                break;
              case 32:
                __builtin_memcpy(buf_, o.buf_, 32);
                break;
              case 48:
                __builtin_memcpy(buf_, o.buf_, 48);
                break;
              default:
                o.ops_->relocate(buf_, o.buf_);
                break;
            }
#pragma GCC diagnostic pop
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineSize];
    const Ops *ops_ = nullptr;
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_INLINE_FN_HH
