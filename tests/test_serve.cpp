/**
 * @file
 * The experiment service daemon (src/serve/): the ContentLru memo
 * behind its server-resident caches, wire-level request validation, request coalescing pinned to
 * exactly one evaluation, the determinism contract (daemon result
 * bytes == local in-process bytes), admission control (quota / busy /
 * draining), the client-disconnect cancellation seam, graceful drain,
 * a client that never reads its replies —
 * and the PR's satellite probe points: the tableau trajectory loops
 * honoring CancelToken mid-evaluation.
 *
 * Daemon tests run against a synthetic workload catalog (tiny cells,
 * a latch-blockable cell function) so coalescing and cancellation
 * windows are deterministic, not timing hopes.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ansatz/ansatz.hpp"
#include "ham/ising.hpp"
#include "noise/noise_model.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/workloads.hpp"
#include "store/sink.hpp"
#include "vqa/fault.hpp"
#include "vqa/storefmt.hpp"
#include "vqa/sweep.hpp"

using namespace eftvqa;
using namespace std::chrono_literals;

namespace {

// Latch state for the synthetic blockable cell function. Globals
// because WorkloadFactory copies reach the daemon; each test resets
// them before constructing its Daemon.
std::atomic<int> g_evals{0};
std::atomic<bool> g_release{true};
std::atomic<bool> g_fail_once{false};

void
resetSynthState(bool released)
{
    g_evals.store(0);
    g_release.store(released);
    g_fail_once.store(false);
}

/** Tiny three-cell grid (qubits 4, 6, 8). The qubits==4 cell blocks
 *  on g_release, polling cancelCheckpoint() — the deterministic
 *  window for coalescing / quota / busy / cancel tests. With
 *  g_fail_once set, the qubits==6 cell throws once. */
serve::Workload
synthWorkload(const std::string &mode)
{
    // Same mode discipline as the real builders, so the daemon's
    // bad-mode rejection path is exercised.
    if (!serve::validWorkloadMode(mode))
        throw std::invalid_argument("synth: unknown mode '" + mode +
                                    "'");
    serve::Workload wl;
    wl.spec.name = "synth";
    wl.spec.families = {HamFamily::Ising};
    wl.spec.sizes = {4, 6, 8};
    wl.spec.couplings = {1.0};
    wl.spec.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    wl.spec.regimes = {RegimeSpec::nisqTableau(4, 17).named("noisy")};
    wl.fn = [](const SweepCell &cell, ExperimentSession &) {
        ++g_evals;
        if (cell.point.qubits == 4) {
            while (!g_release.load()) {
                std::this_thread::sleep_for(1ms);
                cancelCheckpoint();
            }
        }
        if (cell.point.qubits == 6 && g_fail_once.exchange(false))
            throw std::runtime_error("synth: one-shot failure");
        SweepRow row;
        row.set("qubits", cell.point.qubits);
        row.set("value", static_cast<double>(cell.point.qubits) * 1.5);
        return row;
    };
    (void)mode;
    return wl;
}

serve::WorkloadCatalog
synthCatalog()
{
    serve::WorkloadCatalog catalog;
    catalog.registerWorkload("synth", synthWorkload);
    return catalog;
}

std::string
tempSocket(const std::string &name)
{
    const std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

serve::ServeConfig
baseConfig(const std::string &socket_name)
{
    serve::ServeConfig config;
    config.socket_path = tempSocket(socket_name);
    config.workers = 2;
    return config;
}

/** Spin until @p predicate or the deadline; false on timeout. */
template <class Pred>
bool
eventually(Pred predicate, std::chrono::milliseconds deadline = 5000ms)
{
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(1ms);
    }
    return predicate();
}

/** The store line a local in-process run of @p cell produces — the
 *  reference half of the determinism contract. */
std::string
localReferenceLine(const serve::Workload &wl, const SweepCell &cell)
{
    ExperimentSession session(cell.experiment);
    const SweepRow row = wl.fn(cell, session);
    return storefmt::checksummedCellLine(storefmt::serializeCellPayload(
        cell.keyString(), cell.label, row));
}

} // namespace

// --------------------------------------------------------------------
// ContentLru: the memo type behind SharedEnergyCache and
// SharedCompileCache (and the engine's private instances)
// --------------------------------------------------------------------

namespace {

/** A distinct value per @p tag: equal tags give equal vectors, while
 *  compiled circuits compare by identity (every call is a new entry). */
template <typename V>
V
lruValue(int tag);

template <>
std::vector<double>
lruValue<std::vector<double>>(int tag)
{
    return {static_cast<double>(tag), -0.5 * tag};
}

template <>
std::shared_ptr<const CompiledCircuit>
lruValue<std::shared_ptr<const CompiledCircuit>>(int tag)
{
    const Circuit ansatz = fcheAnsatz(2 + tag % 3, 1);
    const Circuit bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.1 * tag));
    return std::make_shared<const CompiledCircuit>(bound);
}

template <typename V>
class ContentLruTest : public ::testing::Test
{
};

struct LruValueNames
{
    template <typename V>
    static std::string GetName(int)
    {
        return std::is_same_v<V, std::vector<double>> ? "Energy"
                                                      : "Compiled";
    }
};

// The value types of SharedEnergyCache and SharedCompileCache.
using LruValueTypes =
    ::testing::Types<std::vector<double>,
                     std::shared_ptr<const CompiledCircuit>>;

} // namespace

TYPED_TEST_SUITE(ContentLruTest, LruValueTypes, LruValueNames);

TYPED_TEST(ContentLruTest, RejectsZeroCapacity)
{
    EXPECT_THROW(ContentLru<TypeParam>(0), std::invalid_argument);
}

TYPED_TEST(ContentLruTest, CountsHitsAndMissesAndEvictsLru)
{
    ContentLru<TypeParam> cache(2);
    EXPECT_EQ(cache.capacity(), 2u);
    const auto a = lruValue<TypeParam>(1);
    const auto b = lruValue<TypeParam>(2);
    const auto c = lruValue<TypeParam>(3);

    EXPECT_FALSE(cache.find(1).has_value());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.insert(1, a), a);
    EXPECT_EQ(cache.insert(2, b), b);
    EXPECT_EQ(cache.size(), 2u);

    // Refresh key 1, then overflow: key 2 is the LRU victim.
    EXPECT_EQ(cache.find(1), a);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.insert(3, c), c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_FALSE(cache.find(2).has_value());
    EXPECT_EQ(cache.find(1), a);
    EXPECT_EQ(cache.find(3), c);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 2u);
}

TYPED_TEST(ContentLruTest, ClearKeepsCounters)
{
    ContentLru<TypeParam> cache(4);
    cache.insert(7, lruValue<TypeParam>(7));
    EXPECT_TRUE(cache.find(7).has_value());
    EXPECT_FALSE(cache.find(8).has_value());

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_FALSE(cache.find(7).has_value());
    EXPECT_EQ(cache.misses(), 2u);
}

TYPED_TEST(ContentLruTest, FirstWriterWinsOnRacingInserts)
{
    // Two engines computing the same entry concurrently both call
    // insert; everyone must end up holding the canonical entry.
    ContentLru<TypeParam> cache(4);
    const auto first = lruValue<TypeParam>(1);
    const auto second = lruValue<TypeParam>(2);
    ASSERT_NE(first, second);
    EXPECT_EQ(cache.insert(42, first), first);
    EXPECT_EQ(cache.insert(42, second), first);
    EXPECT_EQ(cache.find(42), first);
    EXPECT_EQ(cache.size(), 1u);
}

TYPED_TEST(ContentLruTest, ConcurrentFindInsertKeepsOneResidentValue)
{
    // 8 threads race find/insert on overlapping keys, each offering its
    // own value on a miss. With room for every key nothing is evicted,
    // so every insert of a key must hand back the first writer's value.
    constexpr int kThreads = 8;
    constexpr int kKeys = 16;
    constexpr int kRounds = 2000;
    std::vector<std::vector<TypeParam>> offers(kThreads);
    for (int t = 0; t < kThreads; ++t)
        for (int k = 0; k < kKeys; ++k)
            offers[t].push_back(lruValue<TypeParam>(100 * (t + 1) + k));

    for (const size_t capacity : {size_t{kKeys}, size_t{4}}) {
        ContentLru<TypeParam> cache(capacity);
        std::vector<std::vector<std::vector<TypeParam>>> returned(
            kThreads, std::vector<std::vector<TypeParam>>(kKeys));
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                for (int r = 0; r < kRounds; ++r) {
                    // Threads walk the key ring from different offsets.
                    const int k = (r + 3 * t) % kKeys;
                    if (!cache.find(static_cast<uint64_t>(k)))
                        returned[t][k].push_back(cache.insert(
                            static_cast<uint64_t>(k), offers[t][k]));
                }
            });
        for (auto &th : threads)
            th.join();

        EXPECT_EQ(cache.hits() + cache.misses(),
                  static_cast<size_t>(kThreads * kRounds));
        EXPECT_LE(cache.size(), cache.capacity());
        if (capacity < kKeys)
            continue; // evictions let later writers in; counts only
        for (int k = 0; k < kKeys; ++k) {
            const auto resident = cache.find(static_cast<uint64_t>(k));
            ASSERT_TRUE(resident.has_value()) << "key " << k;
            for (int t = 0; t < kThreads; ++t)
                for (const TypeParam &v : returned[t][k])
                    EXPECT_EQ(v, *resident) << "key " << k;
        }
    }
}

// --------------------------------------------------------------------
// Satellite: cancellation probes in the tableau trajectory loops
// --------------------------------------------------------------------

TEST(CancelProbes, PreCancelledTokenStopsTableauEvaluationAtEntry)
{
    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    ASSERT_FALSE(cells.empty());

    ExperimentSession session(cells[0].experiment);
    auto token = std::make_shared<CancelToken>();
    session.setCancelToken(token);
    token->cancel();

    const Circuit &ansatz = session.spec().ansatz;
    const Circuit bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.0));
    EXPECT_THROW(session.energy(session.spec().regime("noisy"), bound),
                 CancelledError);
}

TEST(CancelProbes, TableauTrajectoryLoopHonorsMidEvaluationCancel)
{
    // A trajectory budget far past the cancel latency: without the
    // in-loop probes (stabilizer/noisy_clifford.cpp) this evaluation
    // runs to completion and the test times out instead of throwing.
    SweepSpec spec;
    spec.name = "cancel-probe";
    spec.families = {HamFamily::Ising};
    spec.sizes = {12};
    spec.couplings = {1.0};
    spec.ansatz = [](int n) { return fcheAnsatz(n, 1); };
    spec.regimes = {RegimeSpec::nisqTableau(2000000, 23).named("noisy")};
    const std::vector<SweepCell> cells = spec.cells();
    ASSERT_EQ(cells.size(), 1u);

    ExperimentSession session(cells[0].experiment);
    auto token = std::make_shared<CancelToken>();
    session.setCancelToken(token);

    const Circuit &ansatz = session.spec().ansatz;
    const Circuit bound =
        ansatz.bind(std::vector<double>(ansatz.nParameters(), 0.0));

    std::thread canceller([&] {
        std::this_thread::sleep_for(30ms);
        token->cancel();
    });
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(session.energy(session.spec().regime("noisy"), bound),
                 CancelledError);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    canceller.join();
    // The probe fires at trajectory granularity — well under the
    // full-budget runtime (tens of seconds).
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed)
                  .count(),
              10000);
}

// --------------------------------------------------------------------
// Daemon: validation before work
// --------------------------------------------------------------------

TEST(Daemon, ConfigValidationNamesTheField)
{
    serve::ServeConfig config; // no socket path
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.socket_path = tempSocket("serve_cfg.sock");
    config.max_pending = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.max_pending = 4;
    config.per_client_inflight = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
    config.per_client_inflight = 2;
    config.cache_capacity = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Daemon, RejectsMalformedAndUnknownRequests)
{
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_val.sock");
    serve::Daemon daemon(config, synthCatalog());
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);
    serve::DaemonReply reply;

    // Garbage bytes: structured err, not a dropped connection.
    ASSERT_TRUE(writeFrame(client.fd(), "not json at all"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.code, "bad_request");

    // Unknown request type.
    ASSERT_TRUE(writeFrame(client.fd(), "{\"type\":\"bogus\",\"id\":5}"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.id, 5);
    EXPECT_EQ(reply.code, "bad_request");

    // Run without a key.
    ASSERT_TRUE(writeFrame(
        client.fd(), "{\"type\":\"run\",\"id\":6,\"workload\":\"synth\"}"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "bad_request");

    const serve::Workload wl = synthWorkload("default");
    const std::string key = wl.spec.cells()[0].keyString();

    // Unknown workload name.
    ASSERT_TRUE(client.sendRun(7, "nope", "default", key));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "unknown_workload");
    EXPECT_EQ(reply.category, "invalid_argument");

    // Bad mode string (builder validation surfaces as bad_request).
    ASSERT_TRUE(client.sendRun(8, "synth", "warp9", key));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "bad_request");

    // Key outside the expanded grid.
    ASSERT_TRUE(client.sendRun(9, "synth", "default", "0xdeadbeef"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "unknown_cell");

    // Bad isolation value.
    ASSERT_TRUE(client.sendRun(10, "synth", "default", key, "weird"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "bad_request");

    // Ping still answered on the same connection — rejections never
    // tore it down.
    ASSERT_TRUE(client.sendPing(11));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "pong");
    EXPECT_EQ(reply.id, 11);

    // Nothing was ever admitted.
    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_completed + stats.cells_failed, 0u);
    EXPECT_EQ(g_evals.load(), 0);
}

TEST(Daemon, AnswersMistypedFieldsWithBadRequest)
{
    // A string, fractional or out-of-int64 id, or a non-string type,
    // used to throw out of the serve thread and terminate the daemon.
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_badid.sock");
    serve::Daemon daemon(config, synthCatalog());
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);
    serve::DaemonReply reply;

    for (const char *frame :
         {"{\"type\":\"ping\",\"id\":\"x\"}", "{\"type\":\"ping\",\"id\":1.5}",
          "{\"type\":\"ping\",\"id\":1e30}",
          "{\"type\":\"stats\",\"id\":99999999999999999999}",
          "{\"type\":5,\"id\":3}", "{\"type\":true}"}) {
        ASSERT_TRUE(writeFrame(client.fd(), frame)) << frame;
        ASSERT_TRUE(client.readReply(reply)) << frame;
        EXPECT_EQ(reply.type, "err") << frame;
        EXPECT_EQ(reply.code, "bad_request") << frame;
        EXPECT_EQ(reply.id, 0) << frame;
    }

    // A mistyped run field keeps the (valid) request id.
    ASSERT_TRUE(writeFrame(client.fd(), "{\"type\":\"run\",\"id\":4,"
                                        "\"workload\":7,\"key\":\"k\"}"));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.code, "bad_request");
    EXPECT_EQ(reply.id, 4);

    // The daemon and the connection both survived.
    ASSERT_TRUE(client.sendPing(12));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "pong");
    EXPECT_EQ(reply.id, 12);
}

// --------------------------------------------------------------------
// Daemon: the determinism contract
// --------------------------------------------------------------------

TEST(Daemon, ResultBytesMatchLocalInProcessRuns)
{
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_det.sock");
    serve::Daemon daemon(config, synthCatalog());
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    ASSERT_EQ(cells.size(), 3u);

    for (size_t i = 0; i < cells.size(); ++i) {
        ASSERT_TRUE(client.sendRun(static_cast<long long>(i) + 1,
                                   "synth", "default",
                                   cells[i].keyString()));
        serve::DaemonReply reply;
        ASSERT_TRUE(client.readReply(reply));
        ASSERT_EQ(reply.type, "ok") << reply.error;
        EXPECT_EQ(reply.id, static_cast<long long>(i) + 1);
        EXPECT_EQ(reply.key, cells[i].keyString());
        // The wire payload is the exact checksummed store line a local
        // in-process run stores for this cell.
        EXPECT_EQ(reply.payload, localReferenceLine(wl, cells[i]));

        // And it parses + verifies like any store line.
        std::string key, label;
        SweepRow row;
        ASSERT_TRUE(storefmt::parseChecksummedLine(reply.payload, key,
                                                   label, row));
        EXPECT_EQ(key, cells[i].keyString());
        EXPECT_EQ(row.integer("qubits"), cells[i].point.qubits);
    }

    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_completed, 3u);
    EXPECT_EQ(stats.cells_failed, 0u);
    EXPECT_EQ(stats.requests_total, 3u);
}

// --------------------------------------------------------------------
// Daemon: request coalescing
// --------------------------------------------------------------------

TEST(Daemon, CoalescesConcurrentIdenticalCellsIntoOneEvaluation)
{
    resetSynthState(false); // blocking cell holds the window open
    const serve::ServeConfig config = baseConfig("serve_coal.sock");
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const SweepCell blocked = wl.spec.cells()[0]; // qubits==4 blocks

    serve::DaemonClient a =
        serve::DaemonClient::connectUnix(config.socket_path);
    serve::DaemonClient b =
        serve::DaemonClient::connectUnix(config.socket_path);

    ASSERT_TRUE(a.sendRun(1, "synth", "default", blocked.keyString()));
    // The evaluation is definitely in flight before the second client
    // asks for the same cell — no race about what "concurrent" means.
    ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));
    ASSERT_TRUE(b.sendRun(2, "synth", "default", blocked.keyString()));
    ASSERT_TRUE(eventually(
        [&] { return daemon.stats().cells_coalesced == 1; }));

    g_release.store(true);
    serve::DaemonReply ra, rb;
    ASSERT_TRUE(a.readReply(ra));
    ASSERT_TRUE(b.readReply(rb));
    ASSERT_EQ(ra.type, "ok") << ra.error;
    ASSERT_EQ(rb.type, "ok") << rb.error;
    EXPECT_EQ(ra.id, 1);
    EXPECT_EQ(rb.id, 2);

    // The coalescing pin: exactly one evaluation, byte-identical
    // lines to both clients.
    EXPECT_EQ(g_evals.load(), 1);
    EXPECT_EQ(ra.payload, rb.payload);

    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_completed, 1u);
    EXPECT_EQ(stats.cells_coalesced, 1u);
    EXPECT_EQ(stats.requests_total, 2u);
}

// --------------------------------------------------------------------
// Daemon: admission control
// --------------------------------------------------------------------

TEST(Daemon, EnforcesPerClientInflightQuota)
{
    resetSynthState(false);
    serve::ServeConfig config = baseConfig("serve_quota.sock");
    config.workers = 1;
    config.per_client_inflight = 1;
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);

    ASSERT_TRUE(client.sendRun(1, "synth", "default",
                               cells[0].keyString()));
    ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));
    // Second request while the first is unanswered: over quota.
    ASSERT_TRUE(client.sendRun(2, "synth", "default",
                               cells[1].keyString()));
    serve::DaemonReply reply;
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.id, 2);
    EXPECT_EQ(reply.code, "quota");
    EXPECT_EQ(reply.category, "resource");

    g_release.store(true);
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(reply.id, 1);

    // Quota frees up once the first cell is answered.
    ASSERT_TRUE(client.sendRun(3, "synth", "default",
                               cells[1].keyString()));
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(daemon.stats().rejected_quota, 1u);
}

TEST(Daemon, RejectsWorkPastThePendingQueueBound)
{
    resetSynthState(false);
    serve::ServeConfig config = baseConfig("serve_busy.sock");
    config.workers = 1;    // one executing slot
    config.max_pending = 1; // one queued job
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);

    // Job 1 occupies the single worker (blocked); job 2 sits queued;
    // job 3 overflows the pending bound.
    ASSERT_TRUE(client.sendRun(1, "synth", "default",
                               cells[0].keyString()));
    ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));
    ASSERT_TRUE(client.sendRun(2, "synth", "default",
                               cells[1].keyString()));
    ASSERT_TRUE(eventually(
        [&] { return daemon.stats().cells_queued == 1; }));
    ASSERT_TRUE(client.sendRun(3, "synth", "default",
                               cells[2].keyString()));
    serve::DaemonReply reply;
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.id, 3);
    EXPECT_EQ(reply.code, "busy");

    g_release.store(true);
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(reply.id, 1);
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(reply.id, 2);
    EXPECT_EQ(daemon.stats().rejected_busy, 1u);
}

// --------------------------------------------------------------------
// Daemon: client disconnect cancels only that client's cells
// --------------------------------------------------------------------

TEST(Daemon, DisconnectCancelsOwnCellsWithoutTouchingOtherClients)
{
    resetSynthState(false);
    const serve::ServeConfig config = baseConfig("serve_cancel.sock");
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();

    // Client B's fast cell completes normally alongside A's blocked
    // one (two workers).
    serve::DaemonClient b =
        serve::DaemonClient::connectUnix(config.socket_path);
    {
        serve::DaemonClient a =
            serve::DaemonClient::connectUnix(config.socket_path);
        ASSERT_TRUE(a.sendRun(1, "synth", "default",
                              cells[0].keyString()));
        ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));
        ASSERT_TRUE(b.sendRun(2, "synth", "default",
                              cells[1].keyString()));
        serve::DaemonReply rb;
        ASSERT_TRUE(b.readReply(rb));
        EXPECT_EQ(rb.type, "ok");
        // A drops with its blocked cell still in flight.
    }

    // The disconnect seam: the orphaned job's token is cancelled and
    // the evaluation unwinds at its next checkpoint — with the latch
    // still closed, only cancellation can settle it.
    ASSERT_TRUE(eventually(
        [&] { return daemon.stats().cells_cancelled == 1; }));
    daemon.beginDrain();
    daemon.waitDrained();

    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_cancelled, 1u);
    EXPECT_EQ(stats.cells_completed, 1u); // B's cell
    EXPECT_EQ(stats.cells_failed, 0u);    // cancel is not a failure

    // B's connection is untouched by A's disconnect.
    serve::DaemonReply reply;
    ASSERT_TRUE(b.sendPing(9));
    ASSERT_TRUE(b.readReply(reply));
    EXPECT_EQ(reply.type, "pong");
}

// --------------------------------------------------------------------
// Daemon: graceful drain
// --------------------------------------------------------------------

TEST(Daemon, DrainsInFlightWorkAndRejectsNewRequests)
{
    resetSynthState(false);
    serve::ServeConfig config = baseConfig("serve_drain.sock");
    config.workers = 1;
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    serve::DaemonClient client =
        serve::DaemonClient::connectUnix(config.socket_path);

    ASSERT_TRUE(client.sendRun(1, "synth", "default",
                               cells[0].keyString()));
    ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));

    daemon.beginDrain();
    // New work after drain began: structured rejection.
    ASSERT_TRUE(client.sendRun(2, "synth", "default",
                               cells[1].keyString()));
    serve::DaemonReply reply;
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "err");
    EXPECT_EQ(reply.code, "draining");

    // The admitted job still completes and is answered.
    g_release.store(true);
    ASSERT_TRUE(client.readReply(reply));
    EXPECT_EQ(reply.type, "ok");
    EXPECT_EQ(reply.id, 1);
    daemon.waitDrained();

    const serve::DaemonStats stats = daemon.stats();
    EXPECT_EQ(stats.cells_completed, 1u);
    EXPECT_EQ(stats.rejected_draining, 1u);
    daemon.stop(); // explicit stop after drain — the vqad sequence
}

TEST(Daemon, AClientThatNeverReadsCannotStallTheOthers)
{
    // One client sends stats requests and never reads a reply. Its
    // replies fill the socket, then its bounded outbox, and the daemon
    // drops it; meanwhile another client's ping is answered within 1 s,
    // and drain still finishes.
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_hog.sock");
    serve::Daemon daemon(config, synthCatalog());
    serve::DaemonClient hog =
        serve::DaemonClient::connectUnix(config.socket_path);
    std::thread spam([&] {
        for (int i = 0; i < 20000; ++i)
            if (!writeFrame(hog.fd(), "{\"type\":\"stats\",\"id\":1}"))
                break;
    });
    struct Joiner // unblocks and joins the spammer on every exit path
    {
        int fd;
        std::thread &thread;
        ~Joiner()
        {
            shutdown(fd, SHUT_RDWR);
            thread.join();
        }
    } joiner{hog.fd(), spam};
    EXPECT_TRUE(eventually([&] { return daemon.stats().requests_total > 300; }));

    serve::DaemonClient other =
        serve::DaemonClient::connectUnix(config.socket_path);
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(other.sendPing(42));
    pollfd ready{other.fd(), POLLIN, 0};
    const bool answered = poll(&ready, 1, 1000) == 1;
    EXPECT_TRUE(answered) << "ping unanswered after 1 s";
    serve::DaemonReply reply;
    if (answered) {
        ASSERT_TRUE(other.readReply(reply));
        EXPECT_EQ(reply.type, "pong");
        EXPECT_EQ(reply.id, 42);
        EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
    }

    EXPECT_TRUE(eventually(
        [&] { return daemon.stats().slow_clients_dropped == 1; }));
    shutdown(hog.fd(), SHUT_RDWR); // a daemon stuck on the hog fails, not hangs
    daemon.beginDrain();
    daemon.waitDrained();
    daemon.stop();
}

// --------------------------------------------------------------------
// SweepRunner over serve::DaemonCellSource: the drivers' --daemon path
// --------------------------------------------------------------------

/** The synth workload's runner with the settings a daemon source
 *  requires (FaultPolicy::isolate). */
SweepRunner
synthDaemonRunner(SweepSpec spec)
{
    spec.fault_policy = FaultPolicy::isolate;
    return SweepRunner(std::move(spec));
}

TEST(DaemonSweep, RunsAWholeSweepAndResumesFromTheStore)
{
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_sweep.sock");
    serve::Daemon daemon(config, synthCatalog());

    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    const std::string store = ::testing::TempDir() + "serve_sweep.bin";
    std::remove(store.c_str());

    {
        serve::DaemonCellSource source(config.socket_path, "synth",
                                       "default");
        SweepRunner runner = synthDaemonRunner(wl.spec);
        store::BinarySweepSink sink(store, "synth");
        const SweepReport report = runner.run(source, &sink);
        EXPECT_EQ(report.cells, 3u);
        EXPECT_EQ(report.executed, 3u);
        EXPECT_EQ(report.skipped, 0u);
        EXPECT_EQ(report.failed, 0u);
    }
    EXPECT_EQ(g_evals.load(), 3);

    // Stored rows equal local in-process rows (sink-level determinism:
    // the store holds the daemon's verified lines).
    {
        store::BinarySweepSink sink(store, "synth");
        EXPECT_EQ(sink.loadedCells(), 3u);
        for (const SweepCell &cell : cells) {
            ASSERT_TRUE(sink.contains(cell));
            ExperimentSession session(cell.experiment);
            EXPECT_TRUE(sink.storedRow(cell) == wl.fn(cell, session));
        }
    }

    // Resume: a second daemon-backed run re-requests nothing (the
    // local comparator above also ran the fn, hence the delta check).
    const int evals_before_resume = g_evals.load();
    {
        serve::DaemonCellSource source(config.socket_path, "synth",
                                       "default");
        SweepRunner runner = synthDaemonRunner(wl.spec);
        store::BinarySweepSink sink(store, "synth");
        const SweepReport report = runner.run(source, &sink);
        EXPECT_EQ(report.executed, 0u);
        EXPECT_EQ(report.skipped, 3u);
    }
    EXPECT_EQ(g_evals.load(), evals_before_resume);

    // Structured rejections surface as quarantine outcomes, not
    // exceptions: ask for a cell the workload does not have.
    {
        serve::DaemonCellSource source(config.socket_path, "synth",
                                       "default");
        SweepSpec other = synthWorkload("default").spec;
        other.sizes = {4, 6, 16}; // 16 is not in the served grid
        SweepRunner runner = synthDaemonRunner(other);
        const SweepReport report = runner.run(source, nullptr);
        EXPECT_EQ(report.failed, 1u);
        ASSERT_EQ(report.outcomes.size(), 3u);
        EXPECT_FALSE(report.outcomes[2].ok);
        EXPECT_EQ(report.outcomes[2].category,
                  ErrorCategory::invalid_argument);
    }

    std::remove(store.c_str());
}

TEST(DaemonSweep, ErrReplyRetriesLikeAThrownException)
{
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_retry.sock");
    serve::Daemon daemon(config, synthCatalog());

    g_fail_once.store(true);
    SweepSpec spec = synthWorkload("default").spec;
    serve::DaemonCellSource source(config.socket_path, "synth", "default");
    // A source's failures retry and quarantine: fail_fast is refused.
    SweepRunner fail_fast(spec);
    EXPECT_THROW(fail_fast.run(source, nullptr), std::invalid_argument);

    spec.cell_attempts = 2;
    SweepRunner runner = synthDaemonRunner(spec);
    const SweepReport report = runner.run(source, nullptr);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.retries, 1u);
    EXPECT_EQ(report.outcomes[1].attempts, 2u);
    EXPECT_EQ(g_evals.load(), 4);
}

TEST(DaemonSweep, BusyRepliesAreRetriedNotQuarantined)
{
    // One worker, one pending slot: two direct requests fill both (the
    // qubits==4 cell blocks in the worker, qubits==8 waits in the
    // queue), so the runner's qubits==6 request is turned away "busy"
    // until the latch opens. Its cell never ran; it must come back ok.
    resetSynthState(false);
    serve::ServeConfig config = baseConfig("serve_busy.sock");
    config.workers = 1;
    config.max_pending = 1;
    serve::Daemon daemon(config, synthCatalog());
    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    ASSERT_EQ(cells[0].point.qubits, 4);
    ASSERT_EQ(cells[2].point.qubits, 8);

    serve::DaemonClient blocker =
        serve::DaemonClient::connectUnix(config.socket_path);
    ASSERT_TRUE(blocker.sendRun(1, "synth", "default", cells[0].keyString()));
    ASSERT_TRUE(eventually([] { return g_evals.load() == 1; }));
    serve::DaemonClient queued =
        serve::DaemonClient::connectUnix(config.socket_path);
    ASSERT_TRUE(queued.sendRun(1, "synth", "default", cells[2].keyString()));
    ASSERT_TRUE(
        eventually([&] { return daemon.stats().cells_queued == 1; }));

    const std::string store = ::testing::TempDir() + "serve_busy.bin";
    std::remove(store.c_str());
    SweepSpec spec = wl.spec;
    spec.cell_workers = 4;
    SweepRunner runner = synthDaemonRunner(spec);
    serve::DaemonCellSource source(config.socket_path, "synth", "default");
    SweepReport report;
    std::exception_ptr error;
    std::thread sweep([&] {
        store::BinarySweepSink sink(store, "synth");
        try {
            report = runner.run(source, &sink);
        } catch (...) {
            error = std::current_exception();
        }
    });
    // A second rejection means the first one was asked again.
    EXPECT_TRUE(
        eventually([&] { return daemon.stats().rejected_busy >= 2; }));
    g_release.store(true);
    sweep.join();

    ASSERT_FALSE(error);
    EXPECT_EQ(report.executed, 3u);
    EXPECT_EQ(report.failed, 0u);
    for (const CellOutcome &outcome : report.outcomes)
        EXPECT_TRUE(outcome.ok) << outcome.error;

    // The same sweep in process, into a second store.
    const std::string local_store =
        ::testing::TempDir() + "serve_busy_local.bin";
    std::remove(local_store.c_str());
    {
        store::BinarySweepSink sink(local_store, "synth");
        SweepRunner(wl.spec).run(wl.fn, &sink);
    }
    {
        store::BinarySweepSink sink(store, "synth");
        store::BinarySweepSink local(local_store, "synth");
        EXPECT_EQ(sink.quarantinedCells(), 0u);
        EXPECT_EQ(sink.loadedCells(), 3u);
        for (const SweepCell &cell : cells)
            EXPECT_EQ(sink.underlyingStore().lineFor(cell.keyString()),
                      local.underlyingStore().lineFor(cell.keyString()))
                << cell.label;
    }
    std::remove(store.c_str());
    std::remove(local_store.c_str());
}

TEST(DaemonSweep, RetryFailedReRequestsAQuarantinedCellAndHealsTheStore)
{
    resetSynthState(true);
    const serve::ServeConfig config = baseConfig("serve_heal.sock");
    serve::Daemon daemon(config, synthCatalog());
    const serve::Workload wl = synthWorkload("default");
    const std::vector<SweepCell> cells = wl.spec.cells();
    const std::string store = ::testing::TempDir() + "serve_heal.bin";
    std::remove(store.c_str());
    serve::DaemonCellSource source(config.socket_path, "synth", "default");

    // The one-shot failure comes back as an err reply and quarantines.
    g_fail_once.store(true);
    {
        SweepRunner runner = synthDaemonRunner(wl.spec);
        store::BinarySweepSink sink(store, "synth");
        const SweepReport report = runner.run(source, &sink);
        EXPECT_EQ(report.failed, 1u);
        EXPECT_FALSE(report.outcomes[1].ok);
        EXPECT_EQ(report.outcomes[1].category, ErrorCategory::runtime);
        EXPECT_NE(report.outcomes[1].error.find("one-shot failure"),
                  std::string::npos);
    }
    // A plain resume carries the marker without asking the daemon.
    const int evals = g_evals.load();
    {
        SweepRunner runner = synthDaemonRunner(wl.spec);
        store::BinarySweepSink sink(store, "synth");
        EXPECT_TRUE(sink.quarantined(cells[1]));
        const SweepReport report = runner.run(source, &sink);
        EXPECT_EQ(report.executed, 0u);
        EXPECT_EQ(report.failed, 1u);
    }
    EXPECT_EQ(g_evals.load(), evals);
    // retry_failed re-requests exactly the quarantined cell.
    {
        SweepSpec spec = wl.spec;
        spec.retry_failed = true;
        SweepRunner runner = synthDaemonRunner(spec);
        store::BinarySweepSink sink(store, "synth");
        const SweepReport report = runner.run(source, &sink);
        EXPECT_EQ(report.executed, 1u);
        EXPECT_EQ(report.failed, 0u);
    }
    EXPECT_EQ(g_evals.load(), evals + 1);
    {
        store::BinarySweepSink sink(store, "synth");
        EXPECT_FALSE(sink.quarantined(cells[1]));
        EXPECT_EQ(sink.underlyingStore().lineFor(cells[1].keyString()),
                  localReferenceLine(wl, cells[1]));
    }
    std::remove(store.c_str());
}

TEST(DaemonSweep, StoppedDaemonEndsTheRunWithoutQuarantining)
{
    resetSynthState(false); // the qubits==4 cell blocks until stopped
    const serve::ServeConfig config = baseConfig("serve_stop.sock");
    serve::Daemon daemon(config, synthCatalog());
    const std::string store = ::testing::TempDir() + "serve_stop.bin";
    std::remove(store.c_str());

    SweepSpec spec = synthWorkload("default").spec;
    spec.cell_workers = 2;
    SweepRunner runner = synthDaemonRunner(spec);
    serve::DaemonCellSource source(config.socket_path, "synth", "default");
    std::exception_ptr error;
    std::thread sweep([&] {
        store::BinarySweepSink sink(store, "synth");
        try {
            runner.run(source, &sink);
        } catch (...) {
            error = std::current_exception();
        }
    });
    // Cells 6 and 8 are done; cell 4 holds the serial-order prefix.
    ASSERT_TRUE(eventually([&] {
        const serve::DaemonStats s = daemon.stats();
        return s.cells_completed == 2 && s.cells_active == 1;
    }));
    daemon.stop();
    sweep.join();

    ASSERT_TRUE(error);
    EXPECT_THROW(std::rethrow_exception(error), CellSourceLost);
    store::BinarySweepSink sink(store, "synth");
    EXPECT_EQ(sink.loadedCells(), 0u);
    EXPECT_EQ(sink.quarantinedCells(), 0u);
    std::remove(store.c_str());
}
