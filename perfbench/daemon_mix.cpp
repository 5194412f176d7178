/**
 * @file
 * daemon_mix: an in-process vqad Daemon with a server store, serving a
 * benchmark-registered workload of cheap fig12-smoke-shaped cells to a
 * closed loop of two DaemonClient connections, one request
 * outstanding each. Each script (the unit of work) sends, per client:
 * two cold runs, three repeats of keys stored by earlier scripts, two
 * pings, and then one key both clients send at once (coalesced).
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "clifford_cell.hpp"
#include "common/frame.hpp"
#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "store/sweep_store.hpp"
#include "vqa/storefmt.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace eftvqa;

namespace {

constexpr const char *kWorkload = "perfbench_mix";
constexpr const char *kMode = "default";
constexpr size_t kCouplings = 1400; ///< pool: 2 families x this many cells
constexpr size_t kWarmKeys = 4;     ///< cold cells run during set-up
constexpr size_t kSetupReps = 5;
constexpr size_t kClients = 2;
constexpr size_t kReferenceSamples = 3;

CliffordGrid
mixGrid(uint64_t seed)
{
    SeedStream s(seed);
    CliffordGrid grid;
    grid.name = kWorkload;
    grid.sizes = {16};
    for (size_t i = 0; i < kCouplings; ++i)
        grid.couplings.push_back(s.uniform(0.25, 2.0));
    grid.population = 8;
    grid.generations = 3;
    grid.trajectories = 64;
    return grid;
}

enum class Op
{
    cold,
    hit,
    coalesced,
    ping
};

struct Request
{
    Op op = Op::ping;
    std::string key;
};

/** One client's requests per script, before the coalesced one. */
constexpr Op kClientScript[] = {Op::cold, Op::ping, Op::hit, Op::hit,
                                Op::cold, Op::ping, Op::hit};
constexpr size_t kColdPerClient = static_cast<size_t>(
    std::count(std::begin(kClientScript), std::end(kClientScript), Op::cold));

/** A running daemon plus its connected clients. */
struct Server
{
    std::string socket_path;
    std::string store_path;
    std::unique_ptr<serve::Daemon> daemon;
    std::vector<serve::DaemonClient> clients;
};

std::unique_ptr<Server>
startServer(const std::string &dir, size_t index, size_t workers,
            const CliffordGrid &grid, CellRecorder &rec)
{
    auto server = std::make_unique<Server>();
    server->socket_path = dir + "/d" + std::to_string(index) + ".sock";
    server->store_path = dir + "/d" + std::to_string(index) + ".store";
    std::filesystem::remove(server->store_path);
    serve::ServeConfig cfg;
    cfg.socket_path = server->socket_path;
    cfg.workers = workers;
    cfg.store_path = server->store_path;
    serve::WorkloadCatalog catalog;
    catalog.registerWorkload(kWorkload, [grid, &rec](const std::string &) {
        serve::Workload wl;
        wl.spec = cliffordSweepSpec(grid);
        wl.fn = cliffordCellFn(grid.trajectories, &rec);
        return wl;
    });
    server->daemon =
        std::make_unique<serve::Daemon>(std::move(cfg), std::move(catalog));
    for (size_t c = 0; c < kClients; ++c)
        server->clients.push_back(
            serve::DaemonClient::connectUnix(server->socket_path));
    return server;
}

void
stopServer(std::unique_ptr<Server> server)
{
    server->clients.clear();
    server->daemon->beginDrain();
    server->daemon->waitDrained();
    server->daemon->stop();
    server->daemon.reset();
    std::filesystem::remove(server->store_path);
    std::filesystem::remove(server->socket_path);
}

/** Send @p req and wait for its reply; returns the latency in ms. */
double
roundTrip(serve::DaemonClient &client, long long id, const Request &req,
          serve::DaemonReply &reply)
{
    const int64_t t0 = nowNs();
    const bool sent = req.op == Op::ping
                          ? client.sendPing(id)
                          : client.sendRun(id, kWorkload, kMode, req.key);
    if (!sent || !client.readReply(reply))
        throw std::runtime_error("daemon_mix: daemon connection closed");
    return static_cast<double>(nowNs() - t0) * 1e-6;
}

std::string
inlineFrame(const std::vector<std::pair<std::string, std::string>> &fields,
            long long id)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginInlineObject();
    json.field(fields.front().first, fields.front().second);
    json.field("id", id);
    for (size_t i = 1; i < fields.size(); ++i)
        json.field(fields[i].first, fields[i].second);
    json.endInlineObject();
    return oss.str();
}

/** Frame bytes (out, in) of one ping and one stored-key run request,
 *  through the frame layer on a raw connection. */
std::pair<std::pair<size_t, size_t>, std::pair<size_t, size_t>>
frameProbe(const std::string &socket_path, const std::string &key)
{
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd < 0 ||
        connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
        if (fd >= 0)
            close(fd);
        throw std::runtime_error("daemon_mix: frame probe cannot connect");
    }
    const auto trip = [fd](const std::string &req) {
        std::string reply;
        if (!writeFrame(fd, req) || !readFrame(fd, reply))
            throw std::runtime_error("daemon_mix: frame probe lost the daemon");
        return std::pair<size_t, size_t>{req.size() + 4, reply.size() + 4};
    };
    const auto ping = trip(inlineFrame({{"type", "ping"}}, 1));
    const auto run = trip(inlineFrame(
        {{"type", "run"}, {"workload", kWorkload}, {"mode", kMode}, {"key", key}},
        2));
    close(fd);
    return {ping, run};
}

size_t
rejected(const serve::DaemonStats &s)
{
    return s.rejected_busy + s.rejected_quota + s.rejected_draining;
}

} // namespace

Report
runDaemonMix(const RunConfig &config)
{
    Report report;
    const CliffordGrid grid = mixGrid(config.seed);
    // The client threads count against the thread budget too.
    const size_t workers = std::max<size_t>(
        1, (config.threads - std::min(config.threads, kClients)) / ompThreads());
    report.env["daemon_workers"] = std::to_string(workers);
    report.env["clients"] = std::to_string(kClients);
    report.env["inputs"] = std::to_string(grid.couplings.size() * 2) + " cells";
    std::filesystem::create_directories(config.workdir);

    // The inputs: every cell key in a seeded order. The expansion is
    // dropped at once; only the daemon keeps one while it serves.
    std::vector<std::string> pool;
    for (const SweepCell &cell : cliffordSweepSpec(grid).cells())
        pool.push_back(cell.keyString());
    SeedStream pick(config.seed ^ 0x5C121Full);
    for (size_t i = pool.size(); i > 1; --i)
        std::swap(pool[i - 1], pool[pick.next() % i]);

    Tracer tracer(false);
    CellRecorder rec(tracer);

    // Set-up: start the daemon, connect both clients and run the warm
    // cells (the first request also expands the workload grid).
    std::vector<double> setup_s;
    std::unique_ptr<Server> server;
    std::map<std::string, std::string> cold_payload;
    for (size_t r = 0; r < kSetupReps; ++r) {
        if (server)
            stopServer(std::move(server));
        cold_payload.clear();
        const auto t0 = Clock::now();
        server = startServer(config.workdir, r, workers, grid, rec);
        serve::DaemonReply reply;
        for (size_t k = 0; k < kWarmKeys; ++k) {
            roundTrip(server->clients[k % kClients], static_cast<long long>(k),
                      {Op::cold, pool[k]}, reply);
            report.check(reply.type == "ok", "daemon_mix: warm cell answered ok");
            cold_payload[pool[k]] = reply.payload;
        }
        setup_s.push_back(secondsSince(t0));
    }

    rec.clear();
    const serve::DaemonStats before = server->daemon->stats();
    std::mutex mutex; // guards the measurements below
    std::vector<double> cold_ms, hit_ms, ping_us, overhead_ms;
    std::vector<double> wall_untraced, wall_traced;
    std::vector<std::string> stored(pool.begin(), pool.begin() + kWarmKeys);
    std::vector<std::pair<std::string, std::string>> coalesced_payloads;
    size_t next_key = kWarmKeys;
    size_t requests = 0, pings = 0, runs = 0;
    std::atomic<bool> stop{false};
    bool traced = false;
    std::vector<std::vector<Request>> script(kClients);
    Span root; // the script's span, recorded by hand: it opens and
               // closes on whichever client thread completes a phase
    Clock::time_point script_t0;
    size_t phase = 0;
    const auto start = Clock::now();

    // Phase completion runs on one client thread while the others wait:
    // the start of a script builds every client's requests, the end
    // records the script's wall time and its cold keys as stored.
    const auto on_phase = [&]() noexcept {
        const size_t p = phase++ % 3;
        if (p == 2) {
            const double wall = secondsSince(script_t0);
            if (root.id != 0) {
                root.t1 = nowNs();
                tracer.record(root);
            }
            tracer.setOn(false);
            (traced ? wall_traced : wall_untraced).push_back(wall);
            for (const auto &ops : script)
                for (const Request &r : ops)
                    if (r.op == Op::cold)
                        stored.push_back(r.key);
            return;
        }
        if (p != 0)
            return;
        const size_t index = phase / 3;
        const size_t fresh = kClients * kColdPerClient + 1;
        if (secondsSince(start) >= config.seconds && index >= 2)
            stop = true;
        if (next_key + fresh > pool.size())
            stop = true;
        if (stop)
            return;
        traced = config.trace && index % 2 == 1;
        for (auto &ops : script) {
            ops.clear();
            for (const Op op : kClientScript) {
                if (op == Op::cold)
                    ops.push_back({op, pool[next_key++]});
                else if (op == Op::hit)
                    ops.push_back({op, stored[pick.next() % stored.size()]});
                else
                    ops.push_back({op, {}});
            }
        }
        const std::string shared = pool[next_key++];
        for (auto &ops : script)
            ops.push_back({Op::coalesced, shared});
        tracer.setOn(traced);
        script_t0 = Clock::now();
        root = Span{};
        if (traced) {
            root.name = "bench.iteration";
            root.id = tracer.nextId();
            root.t0 = nowNs();
        }
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(kClients), on_phase);

    std::exception_ptr client_error;
    const auto client_loop = [&](size_t c) {
        serve::DaemonClient &client = server->clients[c];
        long long id = 1000000 * static_cast<long long>(c + 1);
        const auto exchange = [&](const Request &req) {
            serve::DaemonReply reply;
            Scope span(tracer, "serve.request",
                       req.op == Op::ping ? "ping" : req.key, root.id);
            const double ms = roundTrip(client, ++id, req, reply);
            std::lock_guard<std::mutex> lock(mutex);
            ++requests;
            if (req.op == Op::ping) {
                ++pings;
                ping_us.push_back(ms * 1e3);
                report.check(reply.type == "pong", "daemon_mix: ping answered pong");
                return;
            }
            ++runs;
            std::string key, label;
            SweepRow row;
            const bool ok = reply.type == "ok" &&
                            storefmt::parseChecksummedLine(reply.payload, key,
                                                           label, row) &&
                            key == req.key;
            report.check(ok, "daemon_mix: ok reply with a valid checksummed line");
            if (req.op == Op::hit) {
                hit_ms.push_back(ms);
                report.check(reply.payload == cold_payload[req.key],
                             "daemon_mix: hit reply byte-identical to cold reply");
            } else if (req.op == Op::cold) {
                cold_ms.push_back(ms);
                cold_payload[req.key] = reply.payload;
                std::lock_guard<std::mutex> rlock(rec.mutex);
                const auto it = rec.cell_ms_by_key.find(req.key);
                if (it != rec.cell_ms_by_key.end())
                    overhead_ms.push_back(ms - it->second);
            } else {
                coalesced_payloads.push_back({req.key, reply.payload});
            }
        };
        try {
            for (;;) {
                sync.arrive_and_wait();
                if (stop)
                    break;
                for (const Request &req : script[c])
                    if (req.op != Op::coalesced)
                        exchange(req);
                sync.arrive_and_wait();
                exchange(script[c].back());
                sync.arrive_and_wait();
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                client_error = std::current_exception();
            }
            // Let the other clients finish their script and stop.
            stop = true;
            sync.arrive_and_drop();
        }
    };
    std::vector<std::thread> others;
    for (size_t c = 1; c < kClients; ++c)
        others.emplace_back(client_loop, c);
    client_loop(0);
    for (std::thread &t : others)
        t.join();
    if (client_error) {
        stopServer(std::move(server));
        std::rethrow_exception(client_error);
    }
    const serve::DaemonStats after = server->daemon->stats();

    // Coalesced pairs agree; a seeded sample equals a local in-process
    // evaluation of the same cell, byte for byte.
    std::map<std::string, std::string> first_coalesced;
    for (const auto &[key, payload] : coalesced_payloads) {
        const auto [it, fresh] = first_coalesced.insert({key, payload});
        if (!fresh)
            report.check(it->second == payload,
                         "daemon_mix: coalesced replies byte-identical");
    }
    reportEndToEnd(report, setup_s, wall_untraced, rec.energy_ms, cold_ms,
                   hit_ms);
    report.env["requests"] = std::to_string(requests);

    if (config.trace) {
        std::vector<Span> spans = tracer.spans();
        adoptByTag(spans, "serve.request");
        const auto delta = [](size_t b, size_t a) {
            return static_cast<double>(counterDelta(b, a));
        };
        // Counters cover every script of the window, spans only the
        // traced ones.
        const double scripts =
            static_cast<double>(wall_traced.size() + wall_untraced.size());
        reportCliffordLayers(report, rec, spans, scripts,
                             static_cast<double>(wall_traced.size()));
        report.set("vqa.energy_cache.hit_ratio",
                   ratio(delta(before.energy_cache_hits, after.energy_cache_hits),
                         delta(before.energy_cache_hits, after.energy_cache_hits) +
                             delta(before.energy_cache_misses,
                                   after.energy_cache_misses)),
                   "ratio");
        report.set("vqa.compile_cache.hit_ratio",
                   ratio(delta(before.compile_cache_hits, after.compile_cache_hits),
                         delta(before.compile_cache_hits, after.compile_cache_hits) +
                             delta(before.compile_cache_misses,
                                   after.compile_cache_misses)),
                   "ratio");
        report.setTail("serve.ping_us", ping_us, "us");
        report.setTail("serve.overhead_ms", overhead_ms, "ms");
        const double coalesced = delta(before.cells_coalesced, after.cells_coalesced);
        report.set("serve.coalesced", coalesced / scripts, "count");
        report.set("serve.store_hits",
                   delta(before.store_hits, after.store_hits) / scripts, "count");
        report.set("serve.rejected",
                   delta(rejected(before), rejected(after)) / scripts, "count");
        report.set("serve.cells_completed",
                   delta(before.cells_completed, after.cells_completed) / scripts,
                   "count");
        report.set("serve.coalesced_per_cold",
                   ratio(coalesced, static_cast<double>(cold_ms.size())), "ratio");
        report.set("store.appends",
                   delta(before.store_appends, after.store_appends) / scripts,
                   "count");
        report.set("store.fsyncs",
                   delta(before.store_fsyncs, after.store_fsyncs) / scripts, "count");
        report.set("store.max_commit_batch",
                   static_cast<double>(after.store_max_commit_batch), "count");

        // Frame bytes per request over the script's request mix.
        const auto [ping_b, run_b] =
            frameProbe(server->socket_path, stored.front());
        const double n_ping = static_cast<double>(pings);
        const double n_run = static_cast<double>(runs);
        report.set("common.frame.bytes_out",
                   ratio(n_ping * ping_b.first + n_run * run_b.first,
                         n_ping + n_run),
                   "B");
        report.set("common.frame.bytes_in",
                   ratio(n_ping * ping_b.second + n_run * run_b.second,
                         n_ping + n_run),
                   "B");

        // The daemon's store, opened read-only beside the running
        // daemon: open time and per-key lookup time.
        const auto o0 = Clock::now();
        store::SweepStore reader(server->store_path,
                                 store::SweepStore::Mode::read_only);
        report.set("store.open_s", secondsSince(o0), "s");
        std::vector<double> lookup_us;
        for (const std::string &key : stored) {
            const int64_t t0 = nowNs();
            const std::string line = reader.lineFor(key);
            lookup_us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
            report.check(line == cold_payload[key],
                         "daemon_mix: stored line equals the served line");
        }
        report.set("store.lookup_us.p50", median(lookup_us), "us",
                   lookup_us.size());
        reportTracing(report, spans, wall_traced, wall_untraced);
    }

    report.check(rejected(after) == rejected(before) &&
                     after.cells_failed == before.cells_failed,
                 "daemon_mix: no request rejected or failed");
    stopServer(std::move(server));

    std::vector<std::string> sample;
    for (size_t s = 0; s < kReferenceSamples; ++s)
        sample.push_back(stored[pick.next() % stored.size()]);
    const SweepCellFn reference = cliffordCellFn(grid.trajectories, nullptr);
    for (const SweepCell &cell : cliffordSweepSpec(grid).cells()) {
        const std::string key = cell.keyString();
        if (std::find(sample.begin(), sample.end(), key) == sample.end())
            continue;
        ExperimentSession session(cell.experiment);
        const std::string line = storefmt::checksummedCellLine(
            storefmt::serializeCellPayload(key, cell.label,
                                           reference(cell, session)));
        report.check(line == cold_payload[key],
                     "daemon_mix: reply equals the local reference line");
    }
    return report;
}

} // namespace perfbench
