/**
 * @file
 * Ring: a growable FIFO that reuses its storage.
 *
 * The per-thread work queue and the per-channel kernel queue are
 * FIFOs whose depth stays small while millions of items pass through
 * them. std::deque frees and allocates a 512-byte node every few
 * items as the FIFO slides along (every 6th WorkItem, every 5th
 * queued kernel). Ring keeps one power-of-two buffer and wraps
 * around it: it allocates only when the queue grows past its deepest
 * depth so far, doubling, and never in steady state.
 *
 * References from front() stay valid until the next push_back (which
 * may relocate) or pop_front.
 */

#ifndef JETSIM_SIM_RING_HH
#define JETSIM_SIM_RING_HH

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "core/hot_annotations.hh"

namespace jetsim::sim {

/** FIFO over a reused power-of-two ring buffer. T must be
 * nothrow-move-constructible. */
template <class T>
class Ring
{
  public:
    Ring() = default;

    Ring(Ring &&o) noexcept { swap(o); }

    Ring &
    operator=(Ring &&o) noexcept
    {
        Ring(std::move(o)).swap(*this);
        return *this;
    }

    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    ~Ring()
    {
        clear();
        if (buf_)
            std::allocator<T>().deallocate(buf_, cap_);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Items the storage holds before the next growth. */
    std::size_t capacity() const { return cap_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    void
    push_back(T v)
    {
        if (size_ == cap_)
            grow();
        ::new (static_cast<void *>(buf_ + ((head_ + size_) & (cap_ - 1))))
            T(std::move(v));
        ++size_;
    }

    void
    pop_front()
    {
        buf_[head_].~T();
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    /** Destroy every item; the storage stays for reuse. */
    void
    clear()
    {
        while (!empty())
            pop_front();
    }

  private:
    void
    swap(Ring &o) noexcept
    {
        std::swap(buf_, o.buf_);
        std::swap(cap_, o.cap_);
        std::swap(head_, o.head_);
        std::swap(size_, o.size_);
    }

    JETSIM_COLD_OK("ring growth: doubles past the deepest queue so far, storage reused after")
    void
    grow()
    {
        const std::size_t cap = cap_ ? 2 * cap_ : 8;
        T *buf = std::allocator<T>().allocate(cap);
        for (std::size_t i = 0; i < size_; ++i) {
            T &from = buf_[(head_ + i) & (cap_ - 1)];
            ::new (static_cast<void *>(buf + i)) T(std::move(from));
            from.~T();
        }
        if (buf_)
            std::allocator<T>().deallocate(buf_, cap_);
        buf_ = buf;
        cap_ = cap;
        head_ = 0;
    }

    T *buf_ = nullptr;
    std::size_t cap_ = 0; ///< 0 or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace jetsim::sim

#endif // JETSIM_SIM_RING_HH
