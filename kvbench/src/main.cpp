/**
 * kvbench — ProteusKV's closed-loop benchmark.
 *
 *   kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *           --scratch <dir> [--trace-out <file>] [--git-commit <id>]
 *           [--source-hash <hex>]
 *
 * --trace 0 sets the store up several times (setup_s is their median),
 * runs closed-loop clients on half the CPUs for a warm-up and then
 * `seconds`, checks every output and prints the end-to-end metrics.
 * --trace 1 runs the same window untraced and traced, times the hidden
 * layers in isolation, and prints the per-layer metrics; spans go to
 * --trace-out as Chrome trace-event JSON. The last stdout line is one
 * JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit 0 only when every check passed; 2 on bad arguments.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "kvstore/kv_tunable.hpp"
#include "probes.hpp"
#include "rectm/engine.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace kvbench;
namespace rectm = proteus::rectm;
using proteus::kvstore::KvAutoTuner;
using proteus::kvstore::KvTunableOptions;

namespace {

/** An untraced run builds its store at least kMinSetups times and until
 *  kSetupBudgetSeconds have passed (at most kMaxSetups); setup_s is the
 *  median, so a fast set-up is repeated more and reads as steadily as a
 *  slow one. */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 2.0;
/** Longest window a traced run measures, in seconds. */
constexpr double kTracedWindowMax = 10;
/** A detection more than this many periods after the last phase change
 *  is a false detection. */
constexpr int kDetectWindow = kPhasePeriods / 2;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string scratch;
    std::string traceOut;
    std::string gitCommit = "unknown";
    std::string sourceHash = "unknown";
};

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a->workload = v;
        else if (k == "--seed")
            a->seed = std::stoull(v);
        else if (k == "--seconds")
            a->seconds = std::stod(v);
        else if (k == "--trace")
            a->trace = v == "1";
        else if (k == "--scratch")
            a->scratch = v;
        else if (k == "--trace-out")
            a->traceOut = v;
        else if (k == "--git-commit")
            a->gitCommit = v;
        else if (k == "--source-hash")
            a->sourceHash = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a->workload.empty() && !a->scratch.empty() &&
           a->seconds > 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

int
cpuCount()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** One client per two CPUs: on a shared host a CPU taken by another
 *  tenant or by the kernel then does not stall a client, so the figures
 *  track the store rather than the neighbours. */
int
clientCount()
{
    return std::max(1, cpuCount() / 2);
}

std::string
readFirstLine(const std::string &path)
{
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    return line;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** L3 size in bytes from sysfs ("107520K"), 0 when unknown. */
std::uint64_t
l3Bytes()
{
    const std::string s =
        readFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size");
    if (s.empty())
        return 0;
    std::uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
    if (s.back() == 'K')
        v <<= 10;
    else if (s.back() == 'M')
        v <<= 20;
    return v;
}

/** Peak resident memory so far (VmHWM), in MiB. */
double
peakRssMib()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

/** One printed metric; `json` ones also go into the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
    bool json;
};

class Report
{
  public:
    void
    add(std::string name, double value, std::string unit,
        std::string note = "", bool json = true)
    {
        metrics_.push_back({std::move(name), value, std::move(unit),
                            std::move(note), json});
    }

    /** Prints the table, then the result JSON as the last line. */
    void
    print(bool correct, std::uint64_t attempted, std::uint64_t failed) const
    {
        for (const Metric &m : metrics_)
            std::printf("  %-38s %16.4f %-9s %s\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.note.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        const char *sep = "";
        for (const Metric &m : metrics_) {
            if (!m.json)
                continue;
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        sep, m.name.c_str(), m.value, m.unit.c_str());
            sep = ", ";
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    std::vector<Metric> metrics_;
};

/** kv_service's engine: RecTM trained on a synthetic unimodal utility
 *  matrix over the menu's columns. */
rectm::RecTmEngine
trainEngine(std::size_t cols)
{
    rectm::UtilityMatrix train(16, cols);
    proteus::Rng rng(2026);
    for (std::size_t r = 0; r < 16; ++r) {
        const double scale = rng.uniform(1.0, 100.0);
        for (std::size_t c = 0; c < cols; ++c) {
            const double x = static_cast<double>(c);
            const double mid = static_cast<double>(cols) / 2.0;
            train.set(r, c,
                      scale * (1.0 + x - 0.12 * (x - mid) * (x - mid)) *
                          rng.uniform(0.97, 1.03));
        }
    }
    rectm::RecTmEngine::Options opts;
    opts.tuner.trials = 8;
    return rectm::RecTmEngine(train, opts);
}

/** kv_service's tuner settings. */
rectm::RuntimeOptions
runtimeOptions()
{
    rectm::RuntimeOptions ro;
    ro.smbo.maxExplorations = 6;
    ro.cusum.warmup = 3;
    ro.cusum.threshold = 6.0;
    return ro;
}

KvTunableOptions
tunableOptions()
{
    KvTunableOptions o;
    o.menu = KvTunableOptions::defaultMenu();
    o.periodSeconds = kTunerPeriodSeconds;
    return o;
}

int
phaseOf(int period)
{
    return (period / kPhasePeriods) % 2;
}

using Records = std::vector<std::vector<rectm::PeriodRecord>>;

/** Measured window of tuned_phase_shift: a live KvAutoTuner run whose
 *  shard-0 controller flips the traffic phase every kPhasePeriods. */
std::function<void()>
tunerDrive(Workload &w, const rectm::RecTmEngine &engine, double seconds,
           SpanBuffer *span, Records *records)
{
    return [&w, &engine, seconds, span, records] {
        KvAutoTuner tuner(w.store(), engine, tunableOptions(),
                          runtimeOptions());
        const int periods = std::max(
            2 * kPhasePeriods,
            static_cast<int>(seconds / kTunerPeriodSeconds + 0.5));
        w.setPhase(kPhaseUniform);
        ScopedSpan s(span, "kvautotuner", "KvAutoTuner::run");
        Records got = tuner.run(periods, [&w](std::size_t shard, int period) {
            if (shard == 0)
                w.setPhase(phaseOf(period));
        });
        if (records)
            *records = std::move(got);
    };
}

/** Slices that count: the tenth of them where the store ran best. */
constexpr double kBestSliceShare = 0.10;

/**
 * The value the best `kBestSliceShare` of slices reach: the 90th
 * percentile of `v` when higher is better, else the 10th, interpolated
 * between ranks. Other tenants of a shared host only ever slow the store
 * down, and they do it in bursts shorter than a second and in drifts over
 * minutes; the best slices of a window are those they disturbed least,
 * so this figure moves with the code and much less with the host than a
 * mean or a median over all slices (README.md, "Measured spread").
 */
double
bestSlice(std::vector<double> v, bool higher_is_better)
{
    std::sort(v.begin(), v.end());
    const double q =
        higher_is_better ? 1.0 - kBestSliceShare : kBestSliceShare;
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * End-to-end reduction over full slices: bestSlice, taken per traffic
 * phase and averaged over phases (tuned_phase_shift spends equal time in
 * each). With fewer than four slices in a phase, the whole-window figure.
 */
double
sliceFigure(const PassResult &r, double whole, bool higher_is_better,
            const std::function<double(std::size_t)> &per_slice)
{
    std::vector<double> by_phase[2];
    for (std::size_t s = 0; s < r.sliceOpsPerSec.size(); ++s)
        by_phase[r.slicePhase[s]].push_back(per_slice(s));
    double sum = 0;
    int phases = 0;
    for (const auto &v : by_phase) {
        if (v.empty())
            continue;
        if (v.size() < 4)
            return whole;
        sum += bestSlice(v, higher_is_better);
        ++phases;
    }
    return phases ? sum / phases : whole;
}

double
opsPerSec(const PassResult &r)
{
    return sliceFigure(r, static_cast<double>(r.ops) / r.seconds, true,
                       [&](std::size_t s) { return r.sliceOpsPerSec[s]; });
}

double
latency(const PassResult &r, OpKind k, double q)
{
    return sliceFigure(r, r.lat[k].percentile(q), false,
                       [&](std::size_t s) {
                           return r.sliceLat[s][k].percentile(q);
                       });
}

std::string
fingerprint(const Args &a, const Spec &spec, int clients,
            const proteus::obs::TelemetrySnapshot &snap)
{
    const std::uint64_t slots = snap.value("store_capacity_slots");
    const std::uint64_t arena = snap.value("arena_bytes_live");
    // A slot is five 8-byte words plus one ctrl byte.
    const std::uint64_t footprint = slots * 41 + arena;
    const std::uint64_t l3 = l3Bytes();
    std::ostringstream o;
    o << "{\"host\": {\"nproc\": " << cpuCount() << ", \"cpu_model\": \""
      << jsonEscape(cpuModel()) << "\", \"l3_bytes\": " << l3
      << "}, \"build\": {\"type\": \"" << KVBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << KVBENCH_COMPILER
      << "\", \"git_commit\": \"" << jsonEscape(a.gitCommit)
      << "\", \"source_sha256\": \"" << jsonEscape(a.sourceHash)
      << "\"}, \"run\": {\"workload\": \"" << spec.name
      << "\", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
      << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"clients\": " << clients
      << ", \"flush_policy\": \""
      << (spec.durable ? "buffered WAL: ack after write(), no fsync, "
                         "walFlushBytes 65536"
                       : "no WAL")
      << "\"}, \"footprint\": {\"store_capacity_slots\": " << slots
      << ", \"arena_bytes_live\": " << arena
      << ", \"footprint_bytes\": " << footprint << ", \"exceeds_l3\": "
      << (l3 != 0 && footprint > l3 ? "true" : "false") << "}}";
    return o.str();
}

/** Counter delta between two telemetry walks. */
struct Delta
{
    const proteus::obs::TelemetrySnapshot &a;
    const proteus::obs::TelemetrySnapshot &b;
    double
    operator()(const char *name) const
    {
        return static_cast<double>(b.value(name) - a.value(name));
    }
};

/** Checks after a window; durable stores are also reopened from their
 *  WAL and checked again. Returns the violation count. */
std::uint64_t
verifyAll(Workload &w, std::uint64_t *live_bytes, SpanBuffer *span)
{
    std::uint64_t bad = 0;
    {
        ScopedSpan s(span, "bench", "verify");
        bad += w.verify(false, live_bytes);
    }
    if (w.store().durable()) {
        ScopedSpan s(span, "kvstore", "flushWal+reopen+verify");
        bad += w.verify(true, nullptr);
    }
    return bad;
}

void
printHeader(const Args &a, const std::string &fp)
{
    std::printf("kvbench %s seed=%llu seconds=%g trace=%d\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    std::printf("fingerprint %s\n", fp.c_str());
}

/**
 * Prints the p50 and p99 of one op kind. Only the get and multiOp medians
 * are bounded metrics in the result line: on a shared host the p99s and
 * the put median spread more from run to run than the largest bound
 * allows (README.md, "Measured spread"), so they are printed only.
 */
void
addLatency(Report &rep, const PassResult &r, OpKind k, const char *name)
{
    const std::string n = std::to_string(r.lat[k].count());
    const std::string slices = std::to_string(r.sliceOpsPerSec.size());
    rep.add(std::string(name) + "_p50_ns", latency(r, k, 0.50), "ns",
            "samples=" + n + " slices=" + slices, k != kPut);
    rep.add(std::string(name) + "_p99_ns", latency(r, k, 0.99), "ns",
            "samples=" + n + " slices=" + slices + " (printed only)", false);
}

int
runUntraced(const Args &a, const Spec &spec, int clients)
{
    Workload w(spec, clients, a.seed, a.scratch + "/wal");
    std::optional<rectm::RecTmEngine> engine;
    std::vector<double> setups;
    double spent = 0;
    while (setups.size() < kMinSetups ||
           (spent < kSetupBudgetSeconds && setups.size() < kMaxSetups)) {
        w.teardown();
        const std::uint64_t t0 = nowNs();
        if (spec.tuned)
            engine.emplace(trainEngine(tunableOptions().menu.size()));
        w.setup(spec.durable);
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        spent += setups.back();
    }

    PassOptions o;
    o.warmupSeconds = std::clamp(a.seconds * 0.1, 0.3, 1.0);
    o.seconds = a.seconds;
    if (spec.tuned)
        o.drive = tunerDrive(w, *engine, a.seconds, nullptr, nullptr);
    const PassResult r = runPass(w, o);
    // Set-ups and the window only: the durable reopen below replays the
    // whole log, which would make the peak track the write count.
    const double peak_rss = peakRssMib();
    const std::string fp = fingerprint(a, spec, clients, w.store().telemetry());

    std::uint64_t live = 0;
    const std::uint64_t violations = verifyAll(w, &live, nullptr);
    w.teardown();

    const std::uint64_t failed = r.failed + violations;
    printHeader(a, fp);
    Report rep;
    std::vector<double> slices = r.sliceOpsPerSec;
    std::sort(slices.begin(), slices.end());
    const auto at = [&](double q) {
        return slices.empty() ? 0.0
                              : slices[static_cast<std::size_t>(
                                    q * static_cast<double>(slices.size() - 1))];
    };
    char spread[96];
    std::snprintf(spread, sizeof spread,
                  " slice min/q1/q3/max %.0f/%.0f/%.0f/%.0f", at(0),
                  at(0.25), at(0.75), at(1));
    rep.add("ops_per_s", opsPerSec(r), "1/s",
            "ops=" + std::to_string(r.ops) +
                " window_s=" + std::to_string(r.seconds) + spread);
    addLatency(rep, r, kGet, "get");
    addLatency(rep, r, kPut, "put");
    addLatency(rep, r, kMulti, "multi");
    rep.add("setup_s", median(setups), "s",
            "median of " + std::to_string(setups.size()) + " set-ups");
    rep.add("peak_rss_mib", peak_rss, "MiB", "set-ups and window");
    // Always 0 on a passing run, so it is printed but not a bounded
    // metric: `failed` / `attempted` carry it in the result line.
    rep.add("error_ratio",
            ratio(static_cast<double>(failed), static_cast<double>(r.ops)),
            "ratio",
            std::to_string(failed) + " failed ops + check violations",
            false);
    const bool correct = failed == 0;
    rep.print(correct, std::max<std::uint64_t>(r.ops, 1), failed);
    return correct ? 0 : 1;
}

/** The static sweep: every menu config on every shard, per phase, with
 *  kpi[phase][config] = mean shard commits/s, and the latency of each
 *  PolyTm::reconfigure it made while clients ran. */
struct Sweep
{
    std::vector<std::vector<double>> kpi;
    std::vector<double> reconfigureUs;
};

std::function<void()>
sweepDrive(Workload &w, SpanBuffer *span, Sweep *sweep)
{
    return [&w, span, sweep] {
        const auto menu = KvTunableOptions::defaultMenu();
        auto &store = w.store();
        const auto commits = [&store](int s) {
            return store.shard(static_cast<std::size_t>(s))
                .poly()
                .snapshotStats()
                .commits;
        };
        sweep->kpi.assign(2, std::vector<double>(menu.size(), 0.0));
        for (int phase : {kPhaseUniform, kPhaseHotspot}) {
            w.setPhase(phase);
            for (std::size_t c = 0; c < menu.size(); ++c) {
                for (int s = 0; s < store.numShards(); ++s) {
                    ScopedSpan sp(span, "polytm", "PolyTm::reconfigure", 0, c);
                    const std::uint64_t t0 = nowNs();
                    store.shard(static_cast<std::size_t>(s))
                        .poly()
                        .reconfigure(menu[c]);
                    sweep->reconfigureUs.push_back(
                        static_cast<double>(nowNs() - t0) / 1e3);
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                std::vector<std::uint64_t> before;
                for (int s = 0; s < store.numShards(); ++s)
                    before.push_back(commits(s));
                const std::uint64_t t0 = nowNs();
                std::this_thread::sleep_for(std::chrono::milliseconds(200));
                const double dt = static_cast<double>(nowNs() - t0) * 1e-9;
                double sum = 0;
                for (int s = 0; s < store.numShards(); ++s)
                    sum += static_cast<double>(
                               commits(s) -
                               before[static_cast<std::size_t>(s)]) /
                           dt;
                sweep->kpi[static_cast<std::size_t>(phase)][c] =
                    sum / store.numShards();
            }
        }
        w.setPhase(kPhaseUniform);
    };
}

/** What the tuner probe measured. */
struct TunerProbe
{
    Records records;
    Sweep sweep;
    std::vector<double> optimizeUs;
    std::uint64_t failed = 0;
};

/**
 * Scores KvAutoTuner: tuned_phase_shift's traffic on its own 2-shard
 * store under a live tuner for `seconds`, then the static sweep of every
 * menu config, then RecTmEngine::optimize timed over the uniform phase's
 * measured column. Every traced run makes it, whatever its workload.
 */
TunerProbe
runTunerProbe(const Args &a, double seconds, int clients, SpanBuffer *span)
{
    TunerProbe t;
    Workload w(*findSpec("tuned_phase_shift"), clients, a.seed,
               a.scratch + "/tuner");
    std::optional<rectm::RecTmEngine> engine;
    {
        ScopedSpan s(span, "rectm", "RecTmEngine::RecTmEngine");
        engine.emplace(trainEngine(tunableOptions().menu.size()));
    }
    w.setup(false);

    PassOptions o;
    o.warmupSeconds = std::clamp(seconds * 0.1, 0.3, 1.0);
    o.drive = tunerDrive(w, *engine, seconds, span, &t.records);
    t.failed += runPass(w, o).failed;

    PassOptions so;
    so.warmupSeconds = 0.1;
    so.drive = sweepDrive(w, span, &t.sweep);
    t.failed += runPass(w, so).failed;
    t.failed += w.verify(false, nullptr);
    w.teardown();

    const std::vector<double> &column = t.sweep.kpi[kPhaseUniform];
    for (int i = 0; i < 20; ++i) {
        ScopedSpan s(span, "rectm", "RecTmEngine::optimize");
        const std::uint64_t t0 = nowNs();
        engine->optimize([&](std::size_t c) { return column[c]; },
                         runtimeOptions().smbo);
        t.optimizeUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }
    return t;
}

/** The tuner's score from its period records and the static sweep. */
void
addTunerMetrics(Report &rep, const TunerProbe &t)
{
    const Records &records = t.records;
    const Sweep &sweep = t.sweep;
    // What the tuner chose, next to what every config measured: the
    // settled config of each non-exploring run of periods, per shard.
    const auto menu = KvTunableOptions::defaultMenu();
    for (int phase : {kPhaseUniform, kPhaseHotspot}) {
        std::printf("sweep %-8s",
                    phase == kPhaseUniform ? "uniform" : "hotspot");
        for (std::size_t c = 0; c < menu.size(); ++c)
            std::printf(" %s=%.0f", menu[c].label().c_str(),
                        sweep.kpi[static_cast<std::size_t>(phase)][c]);
        std::printf("\n");
    }
    for (std::size_t s = 0; s < records.size(); ++s) {
        std::printf("settled shard %zu:", s);
        std::size_t last = menu.size();
        for (const auto &rec : records[s]) {
            if (!rec.exploring && rec.config != last)
                std::printf(" p%d:%s", rec.period,
                            menu[rec.config].label().c_str());
            last = rec.exploring ? menu.size() : rec.config;
        }
        std::printf("\n");
    }

    double periods = 0, exploring = 0, episodes = 0, false_det = 0;
    std::vector<double> lags;
    std::vector<double> settled_ratios;
    for (const auto &recs : records) {
        episodes += 1;
        std::vector<double> sum(2, 0.0), n(2, 0.0);
        const int last = recs.empty() ? 0 : recs.back().period;
        for (const auto &rec : recs) {
            periods += 1;
            exploring += rec.exploring;
            if (rec.changeDetected) {
                episodes += 1;
                if (rec.period % kPhasePeriods >= kDetectWindow ||
                    rec.period < kPhasePeriods)
                    false_det += 1;
            }
            if (!rec.exploring) {
                sum[static_cast<std::size_t>(phaseOf(rec.period))] += rec.kpi;
                n[static_cast<std::size_t>(phaseOf(rec.period))] += 1;
            }
        }
        // Periods from each phase change to this shard's first detection
        // (a miss counts as the whole phase).
        for (int change = kPhasePeriods; change <= last;
             change += kPhasePeriods) {
            double lag = kPhasePeriods;
            for (const auto &rec : recs) {
                if (rec.changeDetected && rec.period >= change &&
                    rec.period < change + kPhasePeriods) {
                    lag = rec.period - change;
                    break;
                }
            }
            lags.push_back(lag);
        }
        for (std::size_t p = 0; p < 2; ++p) {
            const double best = *std::max_element(sweep.kpi[p].begin(),
                                                  sweep.kpi[p].end());
            if (n[p] > 0 && best > 0)
                settled_ratios.push_back(sum[p] / n[p] / best);
        }
    }
    const double shards = static_cast<double>(records.size());
    rep.add("rectm.episodes", ratio(episodes, shards), "count",
            "per shard");
    rep.add("rectm.false_detections", ratio(false_det, shards), "count",
            "per shard; CUSUM alarms not within " +
                std::to_string(kDetectWindow) + " periods of a phase change");
    rep.add("rectm.detect_periods", median(lags), "periods",
            "median over shards x phase changes");
    rep.add("rectm.explore_share", ratio(exploring, periods), "ratio");
    rep.add("rectm.explorations_per_episode", ratio(exploring, episodes),
            "count");
    rep.add("rectm.settled_vs_best", median(settled_ratios), "ratio",
            "settled-period KPI / best static config, median over shard x "
            "phase");
    rep.add("rectm.optimize_us", median(t.optimizeUs), "us",
            "RecTmEngine::optimize over a measured KPI column");
    rep.add("polytm.reconfigure_us_p50", median(sweep.reconfigureUs), "us",
            std::to_string(sweep.reconfigureUs.size()) +
                " reconfigurations under load");
    rep.add("polytm.reconfigure_us_max",
            sweep.reconfigureUs.empty()
                ? 0.0
                : *std::max_element(sweep.reconfigureUs.begin(),
                                    sweep.reconfigureUs.end()),
            "us");
}

int
runTraced(const Args &a, const Spec &spec, int clients)
{
    Tracer tracer;
    SpanBuffer *mainSpans = tracer.newBuffer("main", 100000);
    Workload w(spec, clients, a.seed, a.scratch + "/wal");
    std::optional<rectm::RecTmEngine> engine;
    {
        ScopedSpan s(mainSpans, "bench", "setup");
        if (spec.tuned) {
            ScopedSpan t(mainSpans, "rectm", "RecTmEngine::RecTmEngine",
                         s.id());
            engine.emplace(trainEngine(tunableOptions().menu.size()));
        }
        ScopedSpan t(mainSpans, "kvstore", "KvStore::KvStore+preload",
                     s.id());
        w.setup(spec.durable);
    }
    // Per-layer figures carry no bound, so every window here is capped
    // to keep the traced run short whatever the end-to-end window is.
    const double seconds = std::min(a.seconds, kTracedWindowMax);
    const double warmup = std::clamp(seconds * 0.1, 0.3, 1.0);

    // 1. The untraced window again, as the trace-overhead baseline.
    PassOptions o;
    o.warmupSeconds = warmup;
    o.seconds = seconds;
    if (spec.tuned)
        o.drive = tunerDrive(w, *engine, seconds, nullptr, nullptr);
    const PassResult base = runPass(w, o);

    // 2. The traced window, with telemetry deltas over it.
    proteus::obs::TelemetrySnapshot snap0, snap1;
    SpanBuffer *driveSpans = tracer.newBuffer("controller", 2000);
    o.tracer = &tracer;
    const auto window = spec.tuned
                            ? tunerDrive(w, *engine, seconds, driveSpans,
                                         nullptr)
                            : std::function<void()>([&] {
                                  std::this_thread::sleep_for(
                                      std::chrono::duration<double>(
                                          seconds));
                              });
    o.drive = [&] {
        snap0 = w.store().telemetry();
        window();
        snap1 = w.store().telemetry();
    };
    const PassResult traced = runPass(w, o);
    std::uint64_t failed = base.failed + traced.failed;

    std::uint64_t live = 0;
    failed += verifyAll(w, &live, mainSpans);
    const std::string fp = fingerprint(a, spec, clients, snap1);

    ProbeSetup ps;
    ps.keys = w.shardZeroKeys();
    ps.log2Slots = spec.log2SlotsPerShard;
    ps.valueMin = spec.valueMin;
    ps.valueMax = spec.valueMax;
    ps.threads = clients;
    ps.seconds = 0.3;
    ps.seed = a.seed;
    ps.scratchDir = a.scratch;
    ps.tracer = &tracer;
    w.teardown();

    // 3. The mixed workloads: the same window again with the WAL flipped
    //    (off for durable_mixed, buffered for mixed), so buffered
    //    and WAL-off throughput sit side by side.
    const bool mixed = spec.id == WorkloadId::kDurableMixed;
    double wal_on_ops = 0, wal_off_ops = 0;
    proteus::obs::TelemetrySnapshot wal0 = snap0, wal1 = snap1;
    std::uint64_t wal_writes = traced.writeOps;
    std::uint64_t wal_user_bytes = traced.userBytes;
    if (mixed) {
        ScopedSpan s(mainSpans, "bench",
                     spec.durable ? "wal-off rerun" : "buffered-wal rerun");
        w.setup(!spec.durable);
        PassOptions flip;
        flip.warmupSeconds = warmup;
        proteus::obs::TelemetrySnapshot f0, f1;
        flip.drive = [&] {
            f0 = w.store().telemetry();
            std::this_thread::sleep_for(
                std::chrono::duration<double>(seconds));
            f1 = w.store().telemetry();
        };
        const PassResult r = runPass(w, flip);
        failed += r.failed + verifyAll(w, nullptr, mainSpans);
        w.teardown();
        wal_on_ops = opsPerSec(spec.durable ? base : r);
        wal_off_ops = opsPerSec(spec.durable ? r : base);
        if (!spec.durable) {
            wal0 = f0;
            wal1 = f1;
            wal_writes = r.writeOps;
            wal_user_bytes = r.userBytes;
        }
    }

    // 4. Hidden layers in isolation.
    ProbeResults pr;
    {
        ScopedSpan s(mainSpans, "bench", "isolated probes");
        pr = runProbes(ps);
    }

    // 5. The tuner, scored on its own phase-shift store.
    TunerProbe tuner;
    {
        ScopedSpan s(mainSpans, "bench", "tuner probe");
        tuner = runTunerProbe(a, seconds, clients, driveSpans);
    }
    failed += tuner.failed;

    const Delta d{snap0, snap1};
    const bool wide = spec.valueMax > 0;
    const double in_get = traced.lat[kGet].percentile(0.5);
    const double base_ops = opsPerSec(base);
    const double traced_ops = opsPerSec(traced);
    const auto na = [](bool applies) {
        return applies ? std::string() : std::string("n/a on this workload");
    };

    printHeader(a, fp);
    Report rep;
    rep.add("kvstore.tm_txns_per_op",
            ratio(d("tm_commits"), static_cast<double>(traced.ops)),
            "txn/op");
    rep.add("kvstore.get_ns", in_get, "ns",
            std::string(wide ? "getBytes" : "get") + " in place, samples=" +
                std::to_string(traced.lat[kGet].count()));
    rep.add("kvstore.put_ns", traced.lat[kPut].percentile(0.5), "ns",
            "in place, samples=" + std::to_string(traced.lat[kPut].count()));
    rep.add("kvstore.multi_ns", traced.lat[kMulti].percentile(0.5), "ns",
            "in place, samples=" +
                std::to_string(traced.lat[kMulti].count()));
    rep.add("kvstore.route_overhead_ns",
            in_get - (wide ? pr.shardGetBytesNs : pr.shardGetNs), "ns",
            "in-place get minus isolated Shard get");
    rep.add("kvstore.snapshot_retries_per_multi",
            ratio(d("snapshot_retries"),
                  static_cast<double>(traced.multiOps)),
            "retry/op");
    rep.add("kvstore.snapshot_pending_waits", d("snapshot_pending_waits"),
            "count");
    const double tp = d("twophase_commits") + d("twophase_aborts");
    rep.add("kvstore.twophase_abort_ratio", ratio(d("twophase_aborts"), tp),
            "ratio", na(tp > 0));
    rep.add("shard.get_ns", pr.shardGetNs, "ns", "isolated");
    rep.add("shard.get_bytes_ns", pr.shardGetBytesNs, "ns", "isolated");
    rep.add("shard.put_ns", pr.shardPutNs, "ns", "isolated");
    rep.add("shard.put_bytes_ns", pr.shardPutBytesNs, "ns", "isolated");
    rep.add("shard.grows", d("shard_grows"), "count", "in the window");
    rep.add("shard.compacts", d("shard_compacts"), "count", "in the window");
    rep.add("shard.capacity_slots",
            static_cast<double>(snap1.value("store_capacity_slots")),
            "slots");
    const double allocs = d("arena_allocs");
    rep.add("value_arena.magazine_hit_ratio",
            ratio(d("arena_magazine_hits"), allocs), "ratio",
            na(allocs > 0));
    rep.add("value_arena.cas_retries_per_alloc",
            ratio(d("arena_cas_retries"), allocs), "retry/op",
            na(allocs > 0));
    rep.add("value_arena.bytes_live_per_user_byte",
            ratio(static_cast<double>(snap1.value("arena_bytes_live")),
                  static_cast<double>(live)),
            "B/B", na(wide));
    rep.add("value_arena.limbo_blobs",
            static_cast<double>(snap1.value("arena_limbo")), "count");
    const double aborts = d("tm_aborts");
    rep.add("tm.abort_ratio", ratio(aborts, aborts + d("tm_commits")),
            "ratio");
    rep.add("tm.validation_abort_share",
            ratio(d("tm_aborts_validation"), aborts), "ratio");
    rep.add("tm.txn_ns", pr.tmTxnNs, "ns", "isolated TL2, 3 reads 1 write");
    rep.add("polytm.run_ns", pr.polyRunNs, "ns", "same body via PolyTm::run");
    const Delta dw{wal0, wal1};
    rep.add("wal.appends_per_write_op",
            ratio(dw("wal_appends"), static_cast<double>(wal_writes)),
            "append/op", na(mixed));
    rep.add("wal.bytes_per_user_byte",
            ratio(dw("wal_bytes"), static_cast<double>(wal_user_bytes)),
            "B/B", na(mixed));
    rep.add("wal.encode_ns", pr.walEncodeNs, "ns", "isolated");
    rep.add("wal.append_ns", pr.walAppendNs, "ns",
            "isolated, " + std::to_string(clients) + " threads");
    rep.add("wal.append_1t_ns", pr.walAppend1tNs, "ns", "isolated, 1 thread");
    rep.add("wal.barrier_ns", pr.walBarrierNs, "ns",
            "isolated, " + std::to_string(clients) + " threads");
    rep.add("wal.overhead_pct",
            mixed ? 100.0 * (wal_off_ops - wal_on_ops) / wal_off_ops : 0.0,
            "%", na(mixed));
    addTunerMetrics(rep, tuner);
    rep.add("trace_overhead_pct", 100.0 * (base_ops - traced_ops) / base_ops,
            "%");

    bool wrote = true;
    if (!a.traceOut.empty()) {
        wrote = tracer.writeChromeJson(a.traceOut, fp);
        std::printf("trace: %zu spans -> %s%s\n", tracer.spanCount(),
                    a.traceOut.c_str(), wrote ? "" : " (WRITE FAILED)");
    }
    const std::uint64_t attempted = base.ops + traced.ops;
    rep.add("error_ratio",
            ratio(static_cast<double>(failed),
                  static_cast<double>(attempted)),
            "ratio", std::to_string(failed) + " failed", false);
    const bool correct = failed == 0 && wrote;
    rep.print(correct, std::max<std::uint64_t>(attempted, 1), failed);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    const Spec *spec = nullptr;
    try {
        if (parseArgs(argc, argv, &a))
            spec = findSpec(a.workload);
    } catch (const std::exception &) {
        spec = nullptr;
    }
    if (!spec) {
        std::string names;
        for (const auto &n : specNames())
            names += " " + n;
        std::fprintf(stderr,
                     "usage: kvbench --workload <name> --seed <n> --seconds "
                     "<s> --trace <0|1> --scratch <dir> [--trace-out <file>]"
                     "\nworkloads:%s\n",
                     names.c_str());
        return 2;
    }
    try {
        std::filesystem::create_directories(a.scratch);
        const int clients = clientCount();
        return a.trace ? runTraced(a, *spec, clients)
                       : runUntraced(a, *spec, clients);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "kvbench: %s\n", e.what());
        return 1;
    }
}
