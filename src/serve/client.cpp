#include "serve/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/frame.hpp"
#include "common/json.hpp"
#include "vqa/storefmt.hpp"

namespace eftvqa {
namespace serve {

namespace {

std::string
makeRunFrame(long long id, const std::string &workload,
             const std::string &mode, const std::string &key,
             const std::string &isolation)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginInlineObject();
    json.field("type", "run");
    json.field("id", id);
    json.field("workload", workload);
    json.field("mode", mode);
    json.field("key", key);
    if (!isolation.empty())
        json.field("isolation", isolation);
    json.endInlineObject();
    return oss.str();
}

std::string
makeTypeIdFrame(const char *type, long long id)
{
    std::ostringstream oss;
    JsonWriter json(oss);
    json.beginInlineObject();
    json.field("type", type);
    json.field("id", id);
    json.endInlineObject();
    return oss.str();
}

} // namespace

DaemonClient
DaemonClient::connectUnix(const std::string &socket_path)
{
    sockaddr_un addr{};
    if (socket_path.empty() ||
        socket_path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("vqad client: bad socket path '" +
                                 socket_path + "'");
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(
            std::string("vqad client: socket(AF_UNIX): ") +
            std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        const std::string what = "vqad client: cannot connect to '" +
                                 socket_path +
                                 "': " + std::strerror(errno);
        close(fd);
        throw std::runtime_error(what);
    }
    return DaemonClient(fd);
}

DaemonClient
DaemonClient::connectTcp(uint16_t port)
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(
            std::string("vqad client: socket(AF_INET): ") +
            std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        const std::string what =
            "vqad client: cannot connect to 127.0.0.1:" +
            std::to_string(port) + ": " + std::strerror(errno);
        close(fd);
        throw std::runtime_error(what);
    }
    return DaemonClient(fd);
}

DaemonClient::DaemonClient(DaemonClient &&other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

DaemonClient &
DaemonClient::operator=(DaemonClient &&other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            close(fd_);
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

DaemonClient::~DaemonClient()
{
    if (fd_ >= 0)
        close(fd_);
}

bool
DaemonClient::sendRun(long long id, const std::string &workload,
                      const std::string &mode, const std::string &key,
                      const std::string &isolation)
{
    return writeFrame(fd_,
                      makeRunFrame(id, workload, mode, key, isolation));
}

bool
DaemonClient::sendStats(long long id)
{
    return writeFrame(fd_, makeTypeIdFrame("stats", id));
}

bool
DaemonClient::sendPing(long long id)
{
    return writeFrame(fd_, makeTypeIdFrame("ping", id));
}

bool
DaemonClient::readReply(DaemonReply &out)
{
    std::string payload;
    if (!readFrame(fd_, payload))
        return false;
    std::string key;
    std::string label;
    SweepRow fields;
    if (!storefmt::parseCellPayload(payload, key, label, fields) ||
        !fields.has("type"))
        throw std::runtime_error(
            "vqad client: unparseable reply frame: " + payload);
    out = DaemonReply{};
    out.type = fields.str("type");
    out.id = fields.has("id") ? fields.integer("id") : 0;
    out.key = key;
    if (fields.has("payload"))
        out.payload = fields.str("payload");
    if (fields.has("code"))
        out.code = fields.str("code");
    if (fields.has("category"))
        out.category = fields.str("category");
    if (fields.has("error"))
        out.error = fields.str("error");
    out.fields = std::move(fields);
    return true;
}

DaemonReply
DaemonClient::stats()
{
    if (!sendStats(0))
        throw std::runtime_error("vqad client: daemon hung up");
    DaemonReply reply;
    // Replies to earlier runs may be interleaved ahead of the stats
    // frame; this convenience helper is for idle connections, so any
    // non-stats frame here is a protocol surprise worth throwing on.
    if (!readReply(reply) || reply.type != "stats")
        throw std::runtime_error(
            "vqad client: expected a stats reply");
    return reply;
}

DaemonCellSource::DaemonCellSource(std::string socket_path,
                                   std::string workload, std::string mode,
                                   bool process_isolation)
    : socket_path_(std::move(socket_path)), workload_(std::move(workload)),
      mode_(std::move(mode)), isolation_(process_isolation ? "process" : "")
{
}

std::string
DaemonCellSource::cellLine(const SweepCell &cell)
{
    std::optional<DaemonClient> client;
    DaemonReply reply;
    try {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!idle_.empty()) {
                client.emplace(std::move(idle_.back()));
                idle_.pop_back();
            }
        }
        if (!client)
            client.emplace(DaemonClient::connectUnix(socket_path_));
        const long long id = static_cast<long long>(cell.point.index) + 1;
        for (size_t attempt = 1;; ++attempt) {
            if (!client->sendRun(id, workload_, mode_, cell.keyString(),
                                 isolation_))
                throw std::runtime_error("daemon hung up mid-send");
            // Skip stray frames (another request's id, a pong) until
            // ours.
            do {
                if (!client->readReply(reply))
                    throw std::runtime_error("daemon connection closed "
                                             "with a request outstanding");
            } while (reply.id != id ||
                     (reply.type != "ok" && reply.type != "err"));
            // Admission rejections say nothing about the cell, which
            // never ran: a full queue is asked again, a draining
            // daemon ends the run like a stopped one.
            if (reply.type == "err" && reply.code == "draining")
                throw std::runtime_error(reply.error);
            if (reply.type != "err" || reply.code != "busy")
                break;
            const double backoff_ms =
                retryBackoffMs(cell.content_key, attempt, 1.0, 100.0);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff_ms));
        }
    } catch (const std::exception &e) {
        throw CellSourceLost("vqad cell '" + cell.label + "': " + e.what());
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        idle_.push_back(std::move(*client));
    }
    if (reply.type == "err")
        throw RemoteCellError(errorCategoryFromName(reply.category),
                              reply.code.empty()
                                  ? reply.error
                                  : reply.code + ": " + reply.error);
    return reply.payload;
}

} // namespace serve
} // namespace eftvqa
