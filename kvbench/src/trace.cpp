#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>

namespace kvbench {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
SpanBuffer::add(const char *layer, const char *name,
                std::uint64_t start_ns, std::uint64_t end_ns,
                std::uint64_t parent, std::uint64_t arg)
{
    if (spans_.size() < cap_)
        spans_.push_back(
            {layer, name, start_ns, end_ns, tracer_->nextId(), parent, arg});
}

SpanBuffer *
Tracer::newBuffer(const std::string &thread_name, std::size_t cap)
{
    std::lock_guard<std::mutex> lk(mu_);
    const int tid = static_cast<int>(buffers_.size()) + 1;
    names_.push_back(thread_name);
    return &buffers_.emplace_back(this, tid, cap);
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const SpanBuffer &b : buffers_)
        n += b.spans().size();
    return n;
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::string &other) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
        return false;
    std::uint64_t origin = UINT64_MAX;
    for (const SpanBuffer &b : buffers_)
        for (const Span &s : b.spans())
            origin = std::min(origin, s.startNs);
    if (origin == UINT64_MAX)
        origin = 0;

    std::fprintf(f.get(), "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,"
                          "\"traceEvents\":[\n",
                 other.c_str());
    bool first = true;
    std::size_t i = 0;
    for (const SpanBuffer &b : buffers_) {
        std::fprintf(f.get(),
                     "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                     first ? "" : ",\n", b.tid(), names_[i++].c_str());
        first = false;
        for (const Span &s : b.spans()) {
            // Timestamps are microseconds; three decimals keep ns.
            std::fprintf(
                f.get(),
                ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                "\"args\":{\"id\":%llu,\"parent\":%llu,\"arg\":%llu}}",
                s.name, s.layer,
                static_cast<double>(s.startNs - origin) / 1000.0,
                static_cast<double>(s.endNs - s.startNs) / 1000.0, b.tid(),
                static_cast<unsigned long long>(s.id),
                static_cast<unsigned long long>(s.parent),
                static_cast<unsigned long long>(s.arg));
        }
    }
    std::fprintf(f.get(), "\n]}\n");
    return std::ferror(f.get()) == 0;
}

} // namespace kvbench
