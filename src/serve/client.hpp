/**
 * @file
 * Client side of the vqad wire protocol.
 *
 * DaemonClient is a thin blocking connection: connect over the Unix
 * socket (or loopback TCP), send request frames, read reply frames.
 * DaemonCellSource is the drivers' `--daemon <socket>` executor: a
 * CellLineSource behind SweepRunner::run, so a daemon-backed sweep
 * gets the runner's resume, retries, quarantine, serial-order sink
 * writes and report — the same code as an in-process or process-
 * isolated sweep. Replies carry the checksummed store line, which the
 * runner verifies (checksum and key) before trusting a row, so the
 * store a daemon-backed driver writes is byte-identical to a local
 * run's.
 */

#ifndef EFTVQA_SERVE_CLIENT_HPP
#define EFTVQA_SERVE_CLIENT_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "vqa/sweep.hpp"

namespace eftvqa {
namespace serve {

/** One parsed reply frame. */
struct DaemonReply
{
    std::string type; ///< "ok" / "err" / "stats" / "pong"
    long long id = 0;
    std::string key;     ///< ok replies: the cell key
    std::string payload; ///< ok replies: the checksummed store line
    std::string code;    ///< err replies: structured rejection code
    std::string category;
    std::string error;
    SweepRow fields; ///< every frame field (stats counters live here)
};

/**
 * A blocking framed connection to a vqad daemon. Move-only; the
 * destructor closes the socket (which, daemon-side, cancels any cells
 * only this client is waiting on).
 */
class DaemonClient
{
  public:
    /** Connect to the daemon's Unix socket. Throws std::runtime_error
     *  when the daemon is not there. */
    static DaemonClient connectUnix(const std::string &socket_path);

    /** Connect to the daemon's loopback TCP port. */
    static DaemonClient connectTcp(uint16_t port);

    DaemonClient(DaemonClient &&other) noexcept;
    DaemonClient &operator=(DaemonClient &&other) noexcept;
    DaemonClient(const DaemonClient &) = delete;
    DaemonClient &operator=(const DaemonClient &) = delete;
    ~DaemonClient();

    /** Send a run request. False when the daemon hung up. */
    bool sendRun(long long id, const std::string &workload,
                 const std::string &mode, const std::string &key,
                 const std::string &isolation = "");

    bool sendStats(long long id);
    bool sendPing(long long id);

    /** Block for the next reply frame. False on EOF (daemon gone);
     *  throws std::runtime_error on a corrupt frame. */
    bool readReply(DaemonReply &out);

    /** Round-trip a stats request (id 0). Throws on a dead daemon. */
    DaemonReply stats();

    int fd() const { return fd_; }

  private:
    explicit DaemonClient(int fd) : fd_(fd) {}

    int fd_ = -1;
};

/**
 * The vqad daemon as a SweepRunner cell executor: each cellLine() asks
 * the daemon for one cell of @p workload in @p mode and blocks for the
 * reply. Thread-safe: every runner thread takes its own connection
 * (one request in flight on each; SweepSpec::cell_workers sets how
 * many). An "err" reply throws RemoteCellError with the reply's
 * category — a cell failure the runner retries and quarantines —
 * except the admission rejections, which say nothing about the cell:
 * "busy" (pending queue full) is re-requested on the same connection
 * after a jittered backoff of 1..100 ms, and "draining" throws
 * CellSourceLost. A lost, refused or corrupt connection throws
 * CellSourceLost too, which ends the run. @p process_isolation asks
 * the daemon to run each cell in a forked worker.
 */
class DaemonCellSource final : public CellLineSource
{
  public:
    DaemonCellSource(std::string socket_path, std::string workload,
                     std::string mode, bool process_isolation = false);

    std::string cellLine(const SweepCell &cell) override;

  private:
    std::string socket_path_;
    std::string workload_;
    std::string mode_;
    std::string isolation_;
    std::mutex mutex_;
    std::vector<DaemonClient> idle_; ///< connections between requests
};

} // namespace serve
} // namespace eftvqa

#endif // EFTVQA_SERVE_CLIENT_HPP
