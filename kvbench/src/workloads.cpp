#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "values.hpp"

namespace kvbench {

using proteus::Rng;
using proteus::kvstore::KvOp;
using proteus::kvstore::KvStatus;
using proteus::kvstore::KvStore;
using proteus::kvstore::KvStoreOptions;

namespace {

// name, shards, keys, log2 slots/shard, value bytes, durable, tuned,
// accounts, slice seconds. Tables hold half their slots at preload, under
// the 70% grow trigger, so no grow happens in a window.
const Spec kSpecs[] = {
    {WorkloadId::kReadMostly, "read_mostly", 4, 1u << 20, 19, 64, 192,
     false, false, 0, 0.25},
    {WorkloadId::kDurableMixed, "durable_mixed", 4, 1u << 14, 13, 0, 0,
     true, false, 1u << 10, 0.25},
    {WorkloadId::kDurableMixed, "mixed", 4, 1u << 21, 20, 0, 0,
     false, false, 1u << 10, 0.25},
    {WorkloadId::kTunedPhaseShift, "tuned_phase_shift", 2, 1u << 14, 14,
     0, 0, false, true, 0, 0.2},
};

constexpr std::uint64_t kInitialBalance = 1000000;
constexpr std::uint64_t kHotKeys = 256;
constexpr double kHotTheta = 0.95;
/** Client ops recorded as spans in a traced pass: 1 in kSpanSample, at
 *  most kSpanCap per client. */
constexpr std::uint64_t kSpanSample = 128;
constexpr std::size_t kSpanCap = 40000;

bool
checkWide(std::uint64_t key, const std::string &v, const Spec &spec)
{
    return kvbench::checkWide(key, v, spec.valueMin, spec.valueMax);
}

bool
wide(const Spec &spec)
{
    return spec.valueMax > 0;
}

/** Runs fn(thread_index, session) on `threads` threads, each with its
 *  own session, opened one after another so tids are dense. */
template <typename F>
void
onSessions(KvStore &store, int threads, F &&fn)
{
    std::atomic<int> turn{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            while (turn.load() != t)
                std::this_thread::yield();
            auto session = store.openSession();
            turn.fetch_add(1);
            fn(t, session);
            store.closeSession(session);
        });
    }
    for (auto &th : pool)
        th.join();
}

} // namespace

const Spec *
findSpec(const std::string &name)
{
    for (const Spec &s : kSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

std::vector<std::string>
specNames()
{
    std::vector<std::string> names;
    for (const Spec &s : kSpecs)
        names.emplace_back(s.name);
    return names;
}

/** One client's input stream, ledger and per-op scratch. */
class Workload::Generator
{
  public:
    Generator(Workload &w, int index, std::uint64_t seed)
        : w_(w), spec_(w.spec_), index_(index),
          rng_(mix64(seed * 0x9e3779b97f4a7c15ull + index + 1)),
          ledger_(spec_.id == WorkloadId::kDurableMixed ? spec_.keys : 0,
                  0)
    {}

    /** Draws the next op's inputs (untimed). */
    OpKind
    next()
    {
        const std::uint64_t r = rng_.nextBounded(100);
        switch (spec_.id) {
          case WorkloadId::kReadMostly:
            kind_ = r < 90 ? kGet : r < 95 ? kPut : kMulti;
            if (kind_ == kMulti) {
                ops_.resize(4);
                for (KvOp &op : ops_) {
                    op.kind = KvOp::Kind::kGetBytes;
                    op.key = rng_.nextBounded(spec_.keys);
                }
            } else {
                key_ = rng_.nextBounded(spec_.keys);
            }
            if (kind_ == kPut) {
                const std::size_t len =
                    spec_.valueMin +
                    rng_.nextBounded(spec_.valueMax - spec_.valueMin + 1);
                encodeWide(key_, nonce(), len, &value_);
            }
            break;
          case WorkloadId::kDurableMixed: {
            kind_ = r < 72 ? kGet : r < 90 ? kPut : kMulti;
            const std::uint64_t plain = spec_.keys - spec_.accounts;
            if (kind_ == kGet) {
                key_ = spec_.accounts + rng_.nextBounded(plain);
            } else if (kind_ == kPut) {
                // Each client owns the keys congruent to its index, so
                // its ledger of last-acked puts is exact.
                const auto n = static_cast<std::uint64_t>(w_.clients_);
                key_ = spec_.accounts + rng_.nextBounded(plain / n) * n +
                       static_cast<std::uint64_t>(index_);
                word_ = encodeWord(key_, nonce());
            } else {
                const auto &acc = w_.accountsByShard_;
                const std::uint64_t s1 = rng_.nextBounded(acc.size());
                const std::uint64_t s2 =
                    (s1 + 1 + rng_.nextBounded(acc.size() - 1)) %
                    acc.size();
                const std::uint64_t amount = 1 + rng_.nextBounded(100);
                ops_.resize(2);
                ops_[0].kind = ops_[1].kind = KvOp::Kind::kAdd;
                ops_[0].key = acc[s1][rng_.nextBounded(acc[s1].size())];
                ops_[1].key = acc[s2][rng_.nextBounded(acc[s2].size())];
                ops_[0].value = static_cast<std::uint64_t>(
                    -static_cast<std::int64_t>(amount));
                ops_[1].value = amount;
            }
            break;
          }
          case WorkloadId::kTunedPhaseShift: {
            phase_ = w_.phase();
            const bool hot = phase_ == kPhaseHotspot;
            kind_ = hot ? (r < 13 ? kGet : r < 98 ? kPut : kMulti)
                        : (r < 93 ? kGet : r < 98 ? kPut : kMulti);
            const auto draw = [&] {
                return hot ? rng_.zipf(kHotKeys, kHotTheta)
                           : rng_.nextBounded(spec_.keys);
            };
            if (kind_ == kMulti) {
                ops_.resize(2);
                for (KvOp &op : ops_) {
                    op.kind = KvOp::Kind::kGet;
                    op.key = draw();
                }
            } else {
                key_ = draw();
                word_ = encodeWord(key_, nonce());
            }
            break;
          }
        }
        return kind_;
    }

    /** The timed store call; true when the store reported success. */
    bool
    issue(KvStore &store, KvStore::Session &s)
    {
        switch (kind_) {
          case kGet:
            return wide(spec_) ? store.getBytes(s, key_, &out_)
                               : store.get(s, key_, &outWord_);
          case kPut:
            return (wide(spec_) ? store.putBytes(s, key_, value_.data(),
                                                 value_.size())
                                : store.put(s, key_, word_))
                       .status == KvStatus::kOk;
          default:
            for (KvOp &op : ops_)
                op.ok = false;
            return store.multiOp(s, ops_).status == KvStatus::kOk;
        }
    }

    /** Checks the op's outputs (untimed) and updates the ledger. */
    bool
    check(bool ok)
    {
        writeBytes_ = 0;
        if (!ok)
            return false;
        switch (kind_) {
          case kGet:
            return wide(spec_) ? checkWide(key_, out_, spec_)
                               : checkWord(key_, outWord_);
          case kPut:
            writeBytes_ = 8 + (wide(spec_) ? value_.size() : 8);
            if (!ledger_.empty())
                ledger_[key_] = word_;
            return true;
          default:
            for (const KvOp &op : ops_) {
                if (!op.ok)
                    return false;
                if (op.kind == KvOp::Kind::kGetBytes &&
                    !checkWide(op.key, op.bytes, spec_))
                    return false;
                if (op.kind == KvOp::Kind::kGet &&
                    !checkWord(op.key, op.value))
                    return false;
            }
            if (ops_[0].kind == KvOp::Kind::kAdd)
                writeBytes_ = 32;
            return true;
        }
    }

    const char *
    opName() const
    {
        switch (kind_) {
          case kGet:
            return wide(spec_) ? "KvStore::getBytes" : "KvStore::get";
          case kPut:
            return wide(spec_) ? "KvStore::putBytes" : "KvStore::put";
          default:
            return "KvStore::multiOp";
        }
    }

    std::uint64_t key() const { return kind_ == kMulti ? 0 : key_; }
    /** Traffic phase the last op was drawn from. */
    int phase() const { return phase_; }
    /** Key + value bytes the last op wrote when it was an acked write,
     *  else 0. */
    std::uint64_t writeBytes() const { return writeBytes_; }
    /** Last acked value per owned key (durable_mixed), 0 = never put. */
    const std::vector<std::uint64_t> &ledger() const { return ledger_; }
    /** A fresh store holds only preloaded values. */
    void clearLedger() { std::fill(ledger_.begin(), ledger_.end(), 0); }

  private:
    /** Unique per client: index in the top bits, sequence below. */
    std::uint64_t
    nonce()
    {
        return (static_cast<std::uint64_t>(index_ + 1) << 24) |
               (++seq_ & 0xffffff);
    }

    Workload &w_;
    const Spec &spec_;
    int index_;
    Rng rng_;
    std::uint64_t seq_ = 0;
    std::vector<std::uint64_t> ledger_;
    OpKind kind_ = kGet;
    int phase_ = kPhaseUniform;
    std::uint64_t key_ = 0;
    std::uint64_t word_ = 0;
    std::uint64_t outWord_ = 0;
    std::string value_;
    std::string out_;
    std::vector<KvOp> ops_;
    std::uint64_t writeBytes_ = 0;
};

Workload::Workload(const Spec &spec, int clients, std::uint64_t seed,
                   std::string wal_dir)
    : spec_(spec), clients_(clients), seed_(seed),
      walDir_(std::move(wal_dir))
{
    for (int i = 0; i < clients_; ++i)
        gens_.push_back(std::make_unique<Generator>(*this, i, seed_));
}

Workload::~Workload() = default;

KvStoreOptions
Workload::storeOptions(bool durable) const
{
    KvStoreOptions o;
    o.numShards = spec_.shards;
    o.log2SlotsPerShard = spec_.log2SlotsPerShard;
    o.initial = {proteus::tm::BackendKind::kTl2, clients_, {}};
    if (durable) {
        // Ack after write(), no fsync, default walFlushBytes.
        o.durability = proteus::kvstore::Durability::kBuffered;
        o.walDir = walDir_;
    }
    return o;
}

void
Workload::setup(bool durable)
{
    store_.reset();
    std::filesystem::remove_all(walDir_);
    store_ = std::make_unique<KvStore>(storeOptions(durable));
    for (auto &g : gens_)
        g->clearLedger();

    accountsByShard_.assign(static_cast<std::size_t>(spec_.shards), {});
    for (std::uint64_t k = 0; k < spec_.accounts; ++k)
        accountsByShard_[store_->shardOf(k)].push_back(k);

    std::atomic<std::uint64_t> failures{0};
    onSessions(*store_, clients_, [&](int t, KvStore::Session &s) {
        std::string value;
        for (std::uint64_t k = static_cast<std::uint64_t>(t);
             k < spec_.keys; k += static_cast<std::uint64_t>(clients_)) {
            KvStatus st;
            if (wide(spec_)) {
                encodeWide(k, 0,
                           preloadLength(seed_, k, spec_.valueMin,
                                         spec_.valueMax),
                           &value);
                st = store_->putBytes(s, k, value.data(), value.size())
                         .status;
            } else {
                st = store_->put(s, k,
                                 k < spec_.accounts ? kInitialBalance
                                                    : encodeWord(k, 0))
                         .status;
            }
            if (st != KvStatus::kOk)
                failures.fetch_add(1);
        }
    });
    if (failures.load() != 0)
        throw std::runtime_error("preload: " +
                                 std::to_string(failures.load()) +
                                 " puts failed");
}

void
Workload::teardown()
{
    store_.reset();
    std::filesystem::remove_all(walDir_);
}

std::uint64_t
Workload::verify(bool reopen, std::uint64_t *live_bytes)
{
    if (reopen) {
        store_->flushWal();
        store_.reset();
        store_ = std::make_unique<KvStore>(storeOptions(true));
    }
    std::atomic<std::uint64_t> violations{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> balance{0};
    const std::uint64_t plain = spec_.keys - spec_.accounts;
    const auto n = static_cast<std::uint64_t>(clients_);
    onSessions(*store_, clients_, [&](int t, KvStore::Session &s) {
        std::string out;
        std::uint64_t v = 0, local_bytes = 0, local_balance = 0, bad = 0;
        for (std::uint64_t k = static_cast<std::uint64_t>(t);
             k < spec_.keys; k += n) {
            if (wide(spec_)) {
                if (!store_->getBytes(s, k, &out) ||
                    !checkWide(k, out, spec_))
                    ++bad;
                local_bytes += out.size();
                continue;
            }
            if (!store_->get(s, k, &v)) {
                ++bad;
                continue;
            }
            local_bytes += 8;
            if (k < spec_.accounts) {
                local_balance += v;
                continue;
            }
            if (!checkWord(k, v)) {
                ++bad;
                continue;
            }
            // The owning client's last acked put must be what survived.
            const std::uint64_t owner = (k - spec_.accounts) % n;
            if (spec_.id == WorkloadId::kDurableMixed &&
                k - spec_.accounts < plain / n * n) {
                const std::uint64_t acked = gens_[owner]->ledger()[k];
                if (acked != 0 && acked != v)
                    ++bad;
            }
        }
        violations.fetch_add(bad);
        bytes.fetch_add(local_bytes);
        balance.fetch_add(local_balance);
    });
    // Transfers move value between accounts; the sum never changes.
    if (balance.load() != spec_.accounts * kInitialBalance)
        violations.fetch_add(1);
    if (live_bytes)
        *live_bytes = bytes.load();
    return violations.load();
}

void
Workload::restoreInitialConfig()
{
    for (int s = 0; s < store_->numShards(); ++s)
        store_->shard(static_cast<std::size_t>(s))
            .poly()
            .reconfigure(storeOptions(false).initial);
}

std::vector<std::uint64_t>
Workload::shardZeroKeys() const
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; k < spec_.keys; ++k)
        if (store_->shardOf(k) == 0)
            keys.push_back(k);
    return keys;
}

/** Per-client counters of one pass. */
struct ClientOut
{
    std::array<LatencyRecorder, kNumKinds> lat;
    std::vector<std::array<LatencyRecorder, kNumKinds>> slices;
    /** Ops per slice, by the traffic phase they were drawn from. */
    std::vector<std::array<std::uint64_t, 2>> sliceOps;
    std::uint64_t ops = 0;
    std::uint64_t multiOps = 0;
    std::uint64_t failed = 0;
    std::uint64_t writeOps = 0;
    std::uint64_t userBytes = 0;
};

struct PassRunner
{
    static PassResult
    run(Workload &w, const PassOptions &o)
    {
        KvStore &store = *w.store_;
        const int n = w.clients_;
        const auto slice_ns =
            static_cast<std::uint64_t>(w.spec_.sliceSeconds * 1e9);
        std::vector<ClientOut> outs(static_cast<std::size_t>(n));
        std::atomic<bool> measuring{false};
        std::atomic<bool> stop{false};
        std::atomic<std::uint64_t> t0{0};
        std::atomic<int> turn{0};

        std::vector<std::thread> pool;
        for (int i = 0; i < n; ++i) {
            pool.emplace_back([&, i] {
                while (turn.load() != i)
                    std::this_thread::yield();
                auto session = store.openSession();
                SpanBuffer *spans =
                    o.tracer ? o.tracer->newBuffer(
                                   "client-" + std::to_string(i), kSpanCap)
                             : nullptr;
                turn.fetch_add(1);
                ClientOut &out = outs[static_cast<std::size_t>(i)];
                Workload::Generator &g = *w.gens_[static_cast<std::size_t>(i)];
                std::uint64_t sampled = 0;
                while (!stop.load(std::memory_order_relaxed)) {
                    const OpKind kind = g.next();
                    const std::uint64_t a = nowNs();
                    const bool stored = g.issue(store, session);
                    const std::uint64_t b = nowNs();
                    const bool ok = g.check(stored);
                    if (!ok)
                        ++out.failed;
                    if (!measuring.load(std::memory_order_relaxed))
                        continue;
                    const std::uint64_t start = t0.load(
                        std::memory_order_relaxed);
                    const std::size_t slice =
                        b > start ? (b - start) / slice_ns : 0;
                    if (slice >= out.slices.size()) {
                        out.slices.resize(slice + 1);
                        out.sliceOps.resize(slice + 1, {0, 0});
                    }
                    out.lat[kind].record(b - a);
                    out.slices[slice][kind].record(b - a);
                    ++out.sliceOps[slice][g.phase()];
                    ++out.ops;
                    out.multiOps += kind == kMulti;
                    out.writeOps += g.writeBytes() != 0;
                    out.userBytes += g.writeBytes();
                    if (spans && sampled++ % kSpanSample == 0)
                        spans->add("kvstore", g.opName(), a, b, 0, g.key());
                }
                store.closeSession(session);
            });
        }
        while (turn.load() != n)
            std::this_thread::yield();

        std::this_thread::sleep_for(
            std::chrono::duration<double>(o.warmupSeconds));
        t0.store(nowNs());
        measuring.store(true);
        if (o.drive)
            o.drive();
        else
            std::this_thread::sleep_for(
                std::chrono::duration<double>(o.seconds));
        measuring.store(false);
        const std::uint64_t t1 = nowNs();
        stop.store(true);
        // Clients parked by a narrowed parallelism degree must see stop.
        store.resumeAllForShutdown();
        for (auto &th : pool)
            th.join();
        // The window may have left a narrowed parallelism degree behind
        // (tuner, sweep); later sessions must all be admitted.
        w.restoreInitialConfig();

        PassResult r;
        r.seconds = static_cast<double>(t1 - t0.load()) * 1e-9;
        const auto full_slices =
            static_cast<std::size_t>((t1 - t0.load()) / slice_ns);
        r.sliceLat.resize(full_slices);
        r.sliceOpsPerSec.assign(full_slices, 0.0);
        std::vector<std::array<std::uint64_t, 2>> phase_ops(full_slices,
                                                            {0, 0});
        for (const ClientOut &out : outs) {
            r.ops += out.ops;
            r.multiOps += out.multiOps;
            r.failed += out.failed;
            r.writeOps += out.writeOps;
            r.userBytes += out.userBytes;
            for (int k = 0; k < kNumKinds; ++k)
                r.lat[k].merge(out.lat[k]);
            for (std::size_t s = 0;
                 s < full_slices && s < out.slices.size(); ++s) {
                const auto &ops = out.sliceOps[s];
                r.sliceOpsPerSec[s] +=
                    static_cast<double>(ops[0] + ops[1]) /
                    w.spec_.sliceSeconds;
                phase_ops[s][0] += ops[0];
                phase_ops[s][1] += ops[1];
                for (int k = 0; k < kNumKinds; ++k)
                    r.sliceLat[s][k].merge(out.slices[s][k]);
            }
        }
        for (const auto &ops : phase_ops)
            r.slicePhase.push_back(ops[1] > ops[0] ? kPhaseHotspot
                                                   : kPhaseUniform);
        return r;
    }
};

PassResult
runPass(Workload &w, const PassOptions &options)
{
    return PassRunner::run(w, options);
}

} // namespace kvbench
