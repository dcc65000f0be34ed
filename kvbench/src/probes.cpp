#include "probes.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/rng.hpp"
#include "kvstore/shard.hpp"
#include "kvstore/wal.hpp"
#include "polytm/polytm.hpp"
#include "recorder.hpp"
#include "tm/tl2.hpp"
#include "values.hpp"

namespace kvbench {

using proteus::Rng;
namespace kv = proteus::kvstore;
namespace polytm = proteus::polytm;
namespace tm = proteus::tm;

namespace {

/** Inputs are drawn ahead of time and cycled, so only the call is timed. */
constexpr std::size_t kInputRing = 4096;
constexpr std::uint64_t kProbeSpanSample = 64;
constexpr std::size_t kProbeSpanCap = 5000;

/**
 * Runs body(i, rng, measure) on `threads` threads. Each body sets up
 * its thread, then calls measure(op): op() is timed in a loop until the
 * probe's time is up. Returns the merged per-op latencies.
 */
template <typename Body>
LatencyRecorder
timedLoop(const ProbeSetup &p, int threads, const char *layer,
          const char *name, Body &&body)
{
    std::atomic<bool> stop{false};
    std::atomic<int> ready{0};
    std::vector<LatencyRecorder> recs(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) {
        pool.emplace_back([&, i] {
            SpanBuffer *spans =
                p.tracer ? p.tracer->newBuffer(std::string(name) + "-" +
                                                   std::to_string(i),
                                               kProbeSpanCap)
                         : nullptr;
            Rng rng(mix64(p.seed + 0x51ed * static_cast<std::uint64_t>(i + 1)));
            LatencyRecorder &rec = recs[static_cast<std::size_t>(i)];
            body(i, rng, [&](auto &&op) {
                ready.fetch_add(1);
                std::uint64_t n = 0;
                while (!stop.load(std::memory_order_relaxed)) {
                    const std::uint64_t a = nowNs();
                    op();
                    const std::uint64_t b = nowNs();
                    rec.record(b - a);
                    if (spans && n++ % kProbeSpanSample == 0)
                        spans->add(layer, name, a, b);
                }
            });
        });
    }
    while (ready.load() < threads)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::duration<double>(p.seconds));
    stop.store(true);
    for (auto &t : pool)
        t.join();
    LatencyRecorder all;
    for (const LatencyRecorder &r : recs)
        all.merge(r);
    return all;
}

std::vector<std::uint64_t>
drawKeys(Rng &rng, const std::vector<std::uint64_t> &keys)
{
    std::vector<std::uint64_t> ring(kInputRing);
    for (auto &k : ring)
        k = keys[rng.nextBounded(keys.size())];
    return ring;
}

bool
wideValues(const ProbeSetup &p)
{
    return p.valueMax > 0;
}

/** Value sizes the wide probes write: the workload's range, or one word. */
std::size_t
drawLength(const ProbeSetup &p, Rng &rng)
{
    return wideValues(p) ? p.valueMin + rng.nextBounded(p.valueMax -
                                                        p.valueMin + 1)
                         : 16;
}

void
shardProbes(const ProbeSetup &p, ProbeResults *out)
{
    kv::ShardOptions so;
    so.log2Slots = p.log2Slots;
    so.initial = {tm::BackendKind::kTl2, p.threads, {}};
    kv::Shard shard(so);

    // Preload the key set exactly as the store holds it.
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < p.threads; ++t) {
            pool.emplace_back([&, t] {
                polytm::ThreadToken token = shard.registerWorker();
                std::string v;
                for (std::size_t i = static_cast<std::size_t>(t);
                     i < p.keys.size();
                     i += static_cast<std::size_t>(p.threads)) {
                    const std::uint64_t k = p.keys[i];
                    if (wideValues(p)) {
                        encodeWide(k, 0,
                                   preloadLength(p.seed, k, p.valueMin,
                                                 p.valueMax),
                                   &v);
                        shard.putBytes(token, k, v.data(), v.size());
                    } else {
                        shard.put(token, k, encodeWord(k, 0));
                    }
                }
                shard.deregisterWorker(token);
            });
        }
        for (auto &t : pool)
            t.join();
    }

    const auto probe = [&](const char *name, auto &&make_op) {
        return timedLoop(p, p.threads, "shard", name,
                         [&](int, Rng &rng, auto &&measure) {
                             polytm::ThreadToken token =
                                 shard.registerWorker();
                             const auto keys = drawKeys(rng, p.keys);
                             measure(make_op(token, rng, keys));
                             shard.deregisterWorker(token);
                         })
            .percentile(0.5);
    };
    out->shardGetBytesNs = probe(
        "Shard::getBytes", [&](polytm::ThreadToken &token, Rng &,
                               const std::vector<std::uint64_t> &keys) {
            return [&, i = std::size_t{0}, v = std::string()]() mutable {
                shard.getBytes(token, keys[i++ % kInputRing], &v);
            };
        });
    out->shardGetNs = probe(
        "Shard::get", [&](polytm::ThreadToken &token, Rng &,
                          const std::vector<std::uint64_t> &keys) {
            return [&, i = std::size_t{0}]() mutable {
                std::uint64_t v = 0;
                shard.get(token, keys[i++ % kInputRing], &v);
            };
        });
    out->shardPutBytesNs = probe(
        "Shard::putBytes", [&](polytm::ThreadToken &token, Rng &rng,
                               const std::vector<std::uint64_t> &keys) {
            std::vector<std::string> values(64);
            for (std::size_t j = 0; j < values.size(); ++j)
                encodeWide(keys[j], j + 1, drawLength(p, rng), &values[j]);
            return [&, i = std::size_t{0},
                    values = std::move(values)]() mutable {
                const std::size_t j = i++ % kInputRing;
                const std::string &v = values[j % values.size()];
                shard.putBytes(token, keys[j], v.data(), v.size());
            };
        });
    out->shardPutNs = probe(
        "Shard::put", [&](polytm::ThreadToken &token, Rng &,
                          const std::vector<std::uint64_t> &keys) {
            return [&, i = std::size_t{0}]() mutable {
                const std::uint64_t k = keys[i % kInputRing];
                shard.put(token, k, encodeWord(k, ++i));
            };
        });
}

/** Word indices of 3 reads + 1 write per transaction. */
std::vector<std::size_t>
drawSlots(Rng &rng, std::size_t words)
{
    std::vector<std::size_t> ring(kInputRing);
    for (auto &s : ring)
        s = rng.nextBounded(words);
    return ring;
}

void
tmProbes(const ProbeSetup &p, ProbeResults *out)
{
    // One word per key of the shard's key set stands in for its slots.
    std::vector<std::uint64_t> words(p.keys.size(), 1);
    {
        tm::Tl2Tm backend(16);
        out->tmTxnNs =
            timedLoop(p, p.threads, "tm", "Tl2Tm::txn",
                      [&](int i, Rng &rng, auto &&measure) {
                          tm::TxDesc desc(i, 0x7e57 + i);
                          backend.registerThread(desc);
                          const auto slots = drawSlots(rng, words.size());
                          std::size_t n = 0;
                          measure([&] {
                              for (;;) {
                                  const std::size_t *s =
                                      &slots[(n += 4) % kInputRing];
                                  try {
                                      backend.txBegin(desc);
                                      const std::uint64_t sum =
                                          backend.txRead(desc, &words[s[0]]) +
                                          backend.txRead(desc, &words[s[1]]) +
                                          backend.txRead(desc, &words[s[2]]);
                                      backend.txWrite(desc, &words[s[3]],
                                                      sum);
                                      backend.txCommit(desc);
                                      return;
                                  } catch (const tm::TxAbort &) {
                                      // Rolled back by the backend; retry.
                                  }
                              }
                          });
                          backend.deregisterThread(desc);
                      })
                .percentile(0.5);
    }
    polytm::PolyTm poly({tm::BackendKind::kTl2, p.threads, {}}, {}, 16);
    out->polyRunNs =
        timedLoop(p, p.threads, "polytm", "PolyTm::run",
                  [&](int, Rng &rng, auto &&measure) {
                      polytm::ThreadToken token = poly.registerThread();
                      const auto slots = drawSlots(rng, words.size());
                      std::size_t n = 0;
                      measure([&] {
                          const std::size_t *s = &slots[(n += 4) % kInputRing];
                          poly.run(token, [&](polytm::Tx &tx) {
                              const std::uint64_t sum =
                                  tx.readWord(&words[s[0]]) +
                                  tx.readWord(&words[s[1]]) +
                                  tx.readWord(&words[s[2]]);
                              tx.writeWord(&words[s[3]], sum);
                          });
                      });
                      poly.deregisterThread(token);
                  })
            .percentile(0.5);
}

/** One kBatch record holding one op of the workload's mean value size. */
kv::wal::Record
meanRecord(const ProbeSetup &p)
{
    kv::wal::Record rec;
    rec.type = kv::wal::RecordType::kBatch;
    rec.lsn = 1;
    kv::wal::WalOp op;
    op.key = p.keys.front();
    if (wideValues(p)) {
        op.kind = kv::wal::WalOp::Kind::kPutBytes;
        encodeWide(op.key, 1, (p.valueMin + p.valueMax) / 2, &op.bytes);
    } else {
        op.kind = kv::wal::WalOp::Kind::kPut;
        op.value = encodeWord(op.key, 1);
    }
    rec.ops.push_back(std::move(op));
    return rec;
}

void
walProbes(const ProbeSetup &p, ProbeResults *out)
{
    const kv::wal::Record rec = meanRecord(p);
    out->walEncodeNs =
        timedLoop(p, 1, "wal", "wal::encodeRecord",
                  [&](int, Rng &, auto &&measure) {
                      std::string buf;
                      measure([&] {
                          buf.clear();
                          kv::wal::encodeRecord(rec, &buf);
                      });
                  })
            .percentile(0.5);

    const std::string path = p.scratchDir + "/probe-wal.log";
    const auto appendProbe = [&](int threads, const char *name,
                                 double *append_ns, double *barrier_ns) {
        std::filesystem::remove(path);
        // Buffered, default flush threshold: the store's durable_mixed
        // configuration.
        kv::wal::ShardWal wal(path, kv::Durability::kBuffered, 1 << 16, {});
        std::vector<LatencyRecorder> appends(static_cast<std::size_t>(threads));
        std::vector<LatencyRecorder> barriers(static_cast<std::size_t>(threads));
        timedLoop(p, threads, "wal", name,
                  [&](int i, Rng &, auto &&measure) {
                      kv::wal::Record mine = rec;
                      LatencyRecorder &ar = appends[static_cast<std::size_t>(i)];
                      LatencyRecorder &br = barriers[static_cast<std::size_t>(i)];
                      measure([&] {
                          ++mine.lsn;
                          const std::uint64_t a = nowNs();
                          const kv::wal::AppendResult res = wal.append(mine);
                          const std::uint64_t b = nowNs();
                          wal.barrier(res.end);
                          ar.record(b - a);
                          br.record(nowNs() - b);
                      });
                  });
        LatencyRecorder a, b;
        for (int i = 0; i < threads; ++i) {
            a.merge(appends[static_cast<std::size_t>(i)]);
            b.merge(barriers[static_cast<std::size_t>(i)]);
        }
        *append_ns = a.percentile(0.5);
        if (barrier_ns)
            *barrier_ns = b.percentile(0.5);
    };
    appendProbe(p.threads, "ShardWal::append+barrier", &out->walAppendNs,
                &out->walBarrierNs);
    appendProbe(1, "ShardWal::append+barrier-1t", &out->walAppend1tNs,
                nullptr);
    std::filesystem::remove(path);
}

} // namespace

ProbeResults
runProbes(const ProbeSetup &setup)
{
    ProbeResults r;
    shardProbes(setup, &r);
    tmProbes(setup, &r);
    walProbes(setup, &r);
    return r;
}

} // namespace kvbench
