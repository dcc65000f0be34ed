/**
 * @file
 * In-memory span capture for the traced run, written at exit as Chrome
 * trace-event JSON (loads in Perfetto / chrome://tracing).
 *
 * A span is one call the benchmark made into a layer's public function:
 * its layer (the trace category), the function, start and end, an id
 * and the id of the span that caused it (0 for a root). Each thread
 * appends to its own SpanBuffer, so recording takes no lock; a buffer
 * stops accepting spans at its cap, which bounds memory and file size
 * (hot client loops additionally record only a sample of their ops).
 */

#ifndef KVBENCH_TRACE_HPP
#define KVBENCH_TRACE_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace kvbench {

/** Monotonic nanoseconds (std::chrono::steady_clock). */
std::uint64_t nowNs();

struct Span
{
    const char *layer = "";
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    /** Free-form argument (key, config index, period, ...). */
    std::uint64_t arg = 0;
};

class Tracer;

class SpanBuffer
{
  public:
    SpanBuffer(Tracer *tracer, int tid, std::size_t cap)
        : tracer_(tracer), tid_(tid), cap_(cap)
    {}

    /** Records a finished span under a fresh id. */
    void add(const char *layer, const char *name, std::uint64_t start_ns,
             std::uint64_t end_ns, std::uint64_t parent = 0,
             std::uint64_t arg = 0);
    /** Records a finished span whose id was taken at its start. */
    void push(const Span &span)
    {
        if (spans_.size() < cap_)
            spans_.push_back(span);
    }

    Tracer &tracer() { return *tracer_; }
    int tid() const { return tid_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    Tracer *tracer_;
    int tid_;
    std::size_t cap_;
    std::vector<Span> spans_;
};

class Tracer
{
  public:
    /** A new buffer for one thread; its address stays valid for the
     *  tracer's lifetime. Untraced code passes a null buffer instead. */
    SpanBuffer *newBuffer(const std::string &thread_name,
                          std::size_t cap);

    std::uint64_t nextId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    std::size_t spanCount() const;

    /** Writes every buffered span as Chrome trace-event JSON; `other`
     *  is a JSON object embedded as "otherData". False on I/O error. */
    bool writeChromeJson(const std::string &path,
                         const std::string &other) const;

  private:
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mu_; // guards buffers_ and names_
    std::deque<SpanBuffer> buffers_;
    std::vector<std::string> names_;
};

/** Times a scope into `buf` (no-op when `buf` is null). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanBuffer *buf, const char *layer, const char *name,
               std::uint64_t parent = 0, std::uint64_t arg = 0)
        : buf_(buf), span_{layer, name, nowNs(), 0, 0, parent, arg}
    {
        if (buf_)
            span_.id = buf_->tracer().nextId();
    }
    ~ScopedSpan()
    {
        if (buf_) {
            span_.endNs = nowNs();
            buf_->push(span_);
        }
    }
    /** This span's id, for children to name as their parent. */
    std::uint64_t id() const { return span_.id; }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanBuffer *buf_;
    Span span_;
};

} // namespace kvbench

#endif // KVBENCH_TRACE_HPP
